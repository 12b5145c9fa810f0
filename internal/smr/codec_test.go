package smr

import (
	"bytes"
	"testing"
)

// TestCodecRoundTrip pins the binary framing: encode → decode is identity,
// for empty no-ops through multi-command batches with empty and large values.
func TestCodecRoundTrip(t *testing.T) {
	cases := []wireBatch{
		{},
		{Origin: 1},
		{Origin: 3, IDs: []uint64{7}, Cmds: [][]byte{[]byte("x")}},
		{Origin: 2, IDs: []uint64{1, 2, 3}, Cmds: [][]byte{[]byte("a"), {}, bytes.Repeat([]byte("v"), 4096)}},
		{Origin: 1 << 62, IDs: []uint64{0, 1 << 63}, Cmds: [][]byte{nil, []byte{0, 1, 2}}},
	}
	for i, want := range cases {
		raw := want.encode()
		got, err := decodeBatch(raw)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Origin != want.Origin || len(got.IDs) != len(want.IDs) {
			t.Fatalf("case %d: got %+v, want %+v", i, got, want)
		}
		for j := range want.IDs {
			if got.IDs[j] != want.IDs[j] || !bytes.Equal(got.Cmds[j], want.Cmds[j]) {
				t.Fatalf("case %d cmd %d: got (%d, %q), want (%d, %q)",
					i, j, got.IDs[j], got.Cmds[j], want.IDs[j], want.Cmds[j])
			}
		}
		origin, err := peekOrigin(raw)
		if err != nil || origin != want.Origin {
			t.Fatalf("case %d: peekOrigin = (%d, %v), want %d", i, origin, err, want.Origin)
		}
	}
}

// TestCodecPoolReuse pins that a released envelope decodes the next value
// correctly — stale ids/cmds from the previous decode must not leak through.
func TestCodecPoolReuse(t *testing.T) {
	b := borrowBatch()
	defer releaseBatch(b)
	big := wireBatch{Origin: 1, IDs: []uint64{1, 2, 3, 4}, Cmds: [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}}
	if err := decodeBatchInto(b, big.encode()); err != nil {
		t.Fatal(err)
	}
	small := wireBatch{Origin: 2, IDs: []uint64{9}, Cmds: [][]byte{[]byte("z")}}
	if err := decodeBatchInto(b, small.encode()); err != nil {
		t.Fatal(err)
	}
	if b.Origin != 2 || len(b.IDs) != 1 || len(b.Cmds) != 1 || string(b.Cmds[0]) != "z" {
		t.Fatalf("reused envelope decoded to %+v", *b)
	}
}

// Sinks keep the measured calls' results alive, so the compiler cannot drop
// the work TestCodecAllocs measures.
var (
	sinkInt    int
	sinkOrigin uint64
	sinkValue  []byte
	sinkErr    error
)

// TestCodecAllocs pins the heap allocations of every codec function on its
// steady-state path. The encoders that return a value allocate it once,
// right-sized; everything else, decoding into a reused envelope included,
// allocates nothing. Error returns are not measured.
func TestCodecAllocs(t *testing.T) {
	b := wireBatch{
		Origin: 1 << 40,
		IDs:    []uint64{7, 1 << 33, 9},
		Cmds:   [][]byte{bytes.Repeat([]byte("a"), 64), {}, bytes.Repeat([]byte("b"), 300)},
	}
	raw := b.encode()
	batch := []queued{{id: 7, cmd: b.Cmds[0]}, {barrier: true}, {id: 1 << 33, cmd: b.Cmds[1]}, {id: 9, cmd: b.Cmds[2]}}
	dst := make([]byte, 0, len(raw))
	var into wireBatch
	if err := decodeBatchInto(&into, raw); err != nil { // sizes the envelope
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want float64
		fn   func()
	}{
		{"appendBatch", 0, func() { sinkValue = appendBatch(dst[:0], b.Origin, b.IDs, b.Cmds) }},
		{"batchSize", 0, func() { sinkInt = batchSize(b.Origin, b.IDs, b.Cmds) }},
		{"uvarintLen", 0, func() { sinkInt = uvarintLen(1 << 63) }},
		{"wireBatch.encode", 1, func() { sinkValue = b.encode() }},
		{"encodeBatchFrom", 1, func() { sinkValue = encodeBatchFrom(b.Origin, batch) }},
		{"decodeBatchInto", 0, func() { sinkErr = decodeBatchInto(&into, raw) }},
		{"decodeBinaryInto", 0, func() { sinkErr = decodeBinaryInto(&into, raw[len(batchMagic):]) }},
		{"peekOrigin", 0, func() { sinkOrigin, sinkErr = peekOrigin(raw) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want || sinkErr != nil {
			t.Errorf("%s: %v allocs per call (err %v), want %v", tc.name, got, sinkErr, tc.want)
		}
	}
	if !bytes.Equal(encodeBatchFrom(b.Origin, batch), raw) {
		t.Fatal("encodeBatchFrom and encode disagree")
	}

	// releaseBatch returns the envelope to batchPool. The envelopes are
	// borrowed before measuring: under the race detector Get misses at
	// random, and a miss allocates.
	const runs = 100
	envelopes := make([]*wireBatch, runs+1) // AllocsPerRun adds a warm-up call
	for i := range envelopes {
		envelopes[i] = borrowBatch()
		if err := decodeBatchInto(envelopes[i], raw); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	release := func() { releaseBatch(envelopes[next]); next++ }
	if got := testing.AllocsPerRun(runs, release); got != 0 {
		t.Errorf("releaseBatch: %v allocs per call, want 0", got)
	}
}

// FuzzDecodeBatch feeds the decoder arbitrary bytes. Whatever comes in —
// valid binary framing, truncated headers, hostile counts, garbage — it must
// never panic, and anything it accepts must re-encode to a value that decodes
// to the same batch (decode → encode → decode is identity, which is exactly
// the property recovery relies on when it re-proposes a learned value).
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(wireBatch{}.encode()))
	f.Add([]byte(wireBatch{Origin: 1, IDs: []uint64{1}, Cmds: [][]byte{[]byte("put")}}.encode()))
	f.Add([]byte(wireBatch{Origin: 300, IDs: []uint64{1 << 40, 2}, Cmds: [][]byte{bytes.Repeat([]byte("k"), 300), nil}}.encode()))
	// Seeds that must be rejected.
	rejected := [][]byte{
		[]byte(`{"origin":7,"ids":[1,2],"cmds":["YQ==","Yg=="]}`), // retired JSON batch
		[]byte("rbat\x00\x01"),                 // magic, then nothing
		[]byte("rbat\x00\x01\x01\xff"),         // truncated count
		[]byte("rbat\x00\x01\x00\xff\xff\xff"), // hostile count, no payload
		// count = len(payload)/2 + 1: one command more than its framing allows.
		[]byte("rbat\x00\x01\x00\x02\x00\x00"),
		[]byte(`{"origin":1,"ids":[1,2],"cmds":["YQ=="]}`),
		{},
		[]byte("not a batch at all"),
	}
	for _, raw := range rejected {
		if _, err := decodeBatch(raw); err == nil {
			f.Fatalf("decodeBatch(%q) succeeded, want an error", raw)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		b := borrowBatch()
		defer releaseBatch(b)
		if err := decodeBatchInto(b, raw); err != nil {
			return // rejected is fine; panicking is not
		}
		if len(b.IDs) != len(b.Cmds) {
			t.Fatalf("accepted batch with %d ids for %d cmds", len(b.IDs), len(b.Cmds))
		}
		// peekOrigin must agree with the full decode on anything decodable.
		if origin, err := peekOrigin(raw); err != nil || origin != b.Origin {
			t.Fatalf("peekOrigin = (%d, %v), decode said origin %d", origin, err, b.Origin)
		}
		again, err := decodeBatch(b.encode())
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch: %v", err)
		}
		if again.Origin != b.Origin || len(again.IDs) != len(b.IDs) {
			t.Fatalf("round trip changed the batch: %+v vs %+v", again, *b)
		}
		for i := range b.IDs {
			if again.IDs[i] != b.IDs[i] || !bytes.Equal(again.Cmds[i], b.Cmds[i]) {
				t.Fatalf("round trip changed command %d", i)
			}
		}
	})
}
