package mpi

import "math/bits"

// bufPool is a size-classed free list for the transient byte buffers of
// the RMA message path: the packed origin payload copied at issue time,
// when it is too large for the op header (more than opInline bytes). It
// has a precisely bounded lifetime — from issue to the op's terminal
// state — so it recycles through the pool instead of pressuring the
// garbage collector once per operation.
//
// There is one pool per world. The world's engine runs on one goroutine
// at a time (strict alternation), so no locking is needed, and parallel
// sweep runs in separate worlds never share buffers. Buffers are handed
// out at exact request length over power-of-two capacity classes;
// callers always overwrite the full length, so stale contents can never
// leak into results.
type bufPool struct {
	classes [poolClasses][][]byte

	// gets/puts count buffers handed out and returned. Their difference
	// is the number of live (leaked, if the world is idle) buffers —
	// the leak audit in pool_test.go asserts it reaches zero after every
	// experiment. Zero-length gets return nil and count as neither, and
	// payloads inlined in the op header never come here.
	gets, puts int64
}

// Outstanding returns gets - puts: pooled buffers handed out and not yet
// returned. After a world has fully quiesced this must be zero, or an
// error/early-return path dropped a buffer on the floor.
func (p *bufPool) Outstanding() int64 { return p.gets - p.puts }

const (
	poolMinShift = 5 // smallest class: 32 bytes (up to opInline, payloads are inline)
	poolClasses  = 16
	poolMaxSize  = 1 << (poolMinShift + poolClasses - 1) // 1 MiB

	poolClassRetain = 256 // buffers each class keeps for reuse
)

// classFor returns the class index whose capacity is the smallest
// power-of-two >= n, or -1 when n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > poolMaxSize {
		return -1
	}
	if n <= 1<<poolMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - poolMinShift
}

// get returns a buffer of length n. Contents are unspecified — the
// caller must overwrite all n bytes.
func (p *bufPool) get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		if n <= 0 {
			return nil
		}
		p.gets++
		return make([]byte, n)
	}
	p.gets++
	free := p.classes[c]
	if len(free) == 0 {
		return make([]byte, n, 1<<(poolMinShift+c))
	}
	buf := free[len(free)-1]
	free[len(free)-1] = nil
	p.classes[c] = free[:len(free)-1]
	return buf[:n]
}

// put recycles a buffer obtained from get. Buffers whose capacity is
// not an exact class size (or nil) are dropped to the garbage
// collector; full classes likewise.
func (p *bufPool) put(b []byte) {
	if b == nil {
		return
	}
	p.puts++
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(poolMinShift+c) {
		return
	}
	if len(p.classes[c]) >= poolClassRetain {
		return
	}
	p.classes[c] = append(p.classes[c], b)
}
