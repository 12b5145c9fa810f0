package smr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"rdmaagreement/internal/types"
)

// The slot-value wire format.
//
// A decided slot value is one wireBatch in a length-prefixed binary framing:
// one flat allocation to encode, zero-copy subslices to decode.
//
//	magic "rbat\x00\x01"        6 bytes
//	origin                      uvarint (0 = recovery/fencing no-op)
//	count                       uvarint (number of commands)
//	count × {
//	    id                      uvarint (proposer-local command id)
//	    len(cmd)                uvarint
//	    cmd                     len(cmd) bytes
//	}
//
// A value without the magic is not a batch and fails to decode. Everything a
// decoder hands out aliases the decided value it was given — decided values
// are immutable and retained by the log for the slot window, so the apply
// path never clones command payloads again.
var batchMagic = []byte("rbat\x00\x01")

// appendBatch appends the binary framing of (origin, ids, cmds) to dst. The
// two slices must be the same length; callers that encode straight from a
// []queued batch use encodeBatchFrom instead.
//
//smrlint:noalloc
func appendBatch(dst []byte, origin uint64, ids []uint64, cmds [][]byte) []byte {
	dst = append(dst, batchMagic...)
	dst = binary.AppendUvarint(dst, origin)
	dst = binary.AppendUvarint(dst, uint64(len(cmds)))
	for i, cmd := range cmds {
		dst = binary.AppendUvarint(dst, ids[i])
		dst = binary.AppendUvarint(dst, uint64(len(cmd)))
		dst = append(dst, cmd...)
	}
	return dst
}

// batchSize is the exact encoded size, so encode allocates once, right-sized.
//
//smrlint:noalloc
func batchSize(origin uint64, ids []uint64, cmds [][]byte) int {
	n := len(batchMagic) + uvarintLen(origin) + uvarintLen(uint64(len(cmds)))
	for i, cmd := range cmds {
		n += uvarintLen(ids[i]) + uvarintLen(uint64(len(cmd))) + len(cmd)
	}
	return n
}

//smrlint:noalloc
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// encode emits the binary framing. The returned value is retained by the
// protocol substrate and the log's slot window, so it is a fresh allocation,
// not a pooled buffer.
//
//smrlint:noalloc
func (b wireBatch) encode() types.Value {
	return appendBatch(make([]byte, 0, batchSize(b.Origin, b.IDs, b.Cmds)), b.Origin, b.IDs, b.Cmds)
}

// encodeBatchFrom builds a slot value straight from a dispatched batch:
// barriers contribute nothing to the value and are skipped in place, so the
// hot path never materializes intermediate id/cmd slices.
//
//smrlint:noalloc
func encodeBatchFrom(origin uint64, batch []queued) types.Value {
	n := len(batchMagic) + uvarintLen(origin)
	cmds := 0
	for _, q := range batch {
		if q.barrier {
			continue
		}
		cmds++
		n += uvarintLen(q.id) + uvarintLen(uint64(len(q.cmd))) + len(q.cmd)
	}
	n += uvarintLen(uint64(cmds))
	dst := make([]byte, 0, n)
	dst = append(dst, batchMagic...)
	dst = binary.AppendUvarint(dst, origin)
	dst = binary.AppendUvarint(dst, uint64(cmds))
	for _, q := range batch {
		if q.barrier {
			continue
		}
		dst = binary.AppendUvarint(dst, q.id)
		dst = binary.AppendUvarint(dst, uint64(len(q.cmd)))
		dst = append(dst, q.cmd...)
	}
	return dst
}

// batchPool recycles decode envelopes: the id/cmd slices of a wireBatch are
// reused across decodes on the apply path, so steady state allocates none.
var batchPool = sync.Pool{New: func() any { return new(wireBatch) }}

func borrowBatch() *wireBatch { return batchPool.Get().(*wireBatch) }

//smrlint:noalloc
func releaseBatch(b *wireBatch) {
	b.Origin = 0
	b.IDs = b.IDs[:0]
	for i := range b.Cmds {
		b.Cmds[i] = nil // drop references into decided values
	}
	b.Cmds = b.Cmds[:0]
	batchPool.Put(b)
}

// decodeBatchInto decodes raw into b, reusing b's slice capacity; commands
// are zero-copy subslices of raw. Anything else — a missing magic, truncated
// framing, overlong counts — is an error, never a panic: decided values
// normally always decode, but the fuzz harness (and a hostile raw Propose)
// feeds this arbitrary bytes.
//
//smrlint:noalloc
func decodeBatchInto(b *wireBatch, raw types.Value) error {
	if !bytes.HasPrefix(raw, batchMagic) {
		return fmt.Errorf("decode batch: missing batch magic")
	}
	return decodeBinaryInto(b, raw[len(batchMagic):])
}

//smrlint:noalloc
func decodeBinaryInto(b *wireBatch, rest []byte) error {
	origin, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("decode batch: truncated origin")
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("decode batch: truncated count")
	}
	rest = rest[n:]
	// Each command costs at least two bytes of framing, so an honest count
	// can never exceed half the remaining length — reject before allocating.
	if count > uint64(len(rest)/2) {
		return fmt.Errorf("decode batch: count %d exceeds payload", count)
	}
	b.Origin = origin
	b.IDs = b.IDs[:0]
	b.Cmds = b.Cmds[:0]
	for i := uint64(0); i < count; i++ {
		id, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("decode batch: truncated id %d", i)
		}
		rest = rest[n:]
		size, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("decode batch: truncated length %d", i)
		}
		rest = rest[n:]
		if size > uint64(len(rest)) {
			return fmt.Errorf("decode batch: command %d overruns payload", i)
		}
		b.IDs = append(b.IDs, id)
		b.Cmds = append(b.Cmds, rest[:size:size])
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("decode batch: %d trailing bytes", len(rest))
	}
	return nil
}

// decodeBatch is the allocate-a-fresh-envelope variant, for cold paths and
// tests. The hot path uses decodeBatchInto with a pooled envelope.
func decodeBatch(raw types.Value) (wireBatch, error) {
	var b wireBatch
	if err := decodeBatchInto(&b, raw); err != nil {
		return wireBatch{}, err
	}
	return b, nil
}

// peekOrigin reads a decided value's origin tag with a header parse, without
// materializing the batch. The dispatcher uses it at result-receipt time to
// tell won from displaced before the slot reaches the applier.
//
//smrlint:noalloc
func peekOrigin(raw types.Value) (uint64, error) {
	if !bytes.HasPrefix(raw, batchMagic) {
		return 0, fmt.Errorf("decode batch: missing batch magic")
	}
	origin, n := binary.Uvarint(raw[len(batchMagic):])
	if n <= 0 {
		return 0, fmt.Errorf("decode batch: truncated origin")
	}
	return origin, nil
}
