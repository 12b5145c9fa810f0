package rdmaagreement_test

import (
	"context"
	"fmt"
	"time"

	"rdmaagreement"
)

// One consensus instance of the paper's Fast & Robust algorithm on 3
// processes and 3 simulated RDMA memories: in the failure-free common case
// the leader decides after one replicated memory write, two network delays.
func ExampleNewCluster() {
	cluster, err := rdmaagreement.NewCluster(rdmaagreement.ProtocolFastRobust, rdmaagreement.Options{
		Processes: 3,
		Memories:  3,
	})
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	res, err := cluster.Proposer(cluster.Leader()).Propose(ctx, rdmaagreement.Value("deploy-config-v42"))
	if err != nil {
		fmt.Println("propose:", err)
		return
	}
	fmt.Printf("decided %s in %d delays (fast path: %v)\n", res.Value, res.DecisionDelays, res.FastPath)
	// Output: decided "deploy-config-v42" in 2 delays (fast path: true)
}

// The sharded store in a dozen lines: routes keys over a consistent-hash
// ring to per-shard replicated logs, each committing through the paper's
// Protected Memory Paxos at two delays.
func ExampleNewShardedKV() {
	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{Shards: 2})
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	defer kv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, _, err := kv.Put(ctx, "user/42", "hello"); err != nil {
		fmt.Println("put:", err)
		return
	}
	value, found, err := kv.GetLinearizable(ctx, "user/42")
	if err != nil {
		fmt.Println("get:", err)
		return
	}
	fmt.Println(value, found)
	// Output: hello true
}

// One replicated log group: commands are batched into consensus slots and
// applied, in slot order, to the pluggable state machine (the default is a
// byte-appending register; NewSM swaps in your own).
func ExampleNewLog() {
	l, err := rdmaagreement.NewLog(rdmaagreement.LogOptions{
		Cluster: rdmaagreement.Options{Processes: 3, Memories: 3},
	})
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, _, err := l.Propose(ctx, []byte("set x=1")); err != nil {
		fmt.Println("propose:", err)
		return
	}
	index, _, err := l.Propose(ctx, []byte("set y=2"))
	if err != nil {
		fmt.Println("propose:", err)
		return
	}
	fmt.Println("second command committed at slot", index)
	// Output: second command committed at slot 1
}
