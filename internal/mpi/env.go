package mpi

import "repro/internal/sim"

// Info carries string key/value hints to window creation, mirroring
// MPI_Info. Casper defines the "epochs_used" key (Section III-A); the
// base runtime ignores unknown keys.
type Info map[string]string

// Get returns the value for key, or def if absent.
func (i Info) Get(key, def string) string {
	if i == nil {
		return def
	}
	if v, ok := i[key]; ok {
		return v
	}
	return def
}

// Assert is a bitmask of MPI epoch assertions. They are the standard
// MPI-3 asserts Casper reuses for its optimizations (Section III-C).
type Assert int

// Standard assert flags.
const (
	AssertNone    Assert = 0
	ModeNoPrecede Assert = 1 << iota // no operations precede this fence
	ModeNoSucceed                    // no operations follow this fence
	ModeNoPut                        // no puts into my memory until next fence
	ModeNoStore                      // no local stores since last fence
	ModeNoCheck                      // PSCW: matching is already synchronized
)

// Has reports whether flag is set.
func (a Assert) Has(flag Assert) bool { return a&flag != 0 }

// LockType distinguishes passive-target lock modes.
type LockType int

// Lock modes.
const (
	LockShared LockType = iota
	LockExclusive
)

// String implements fmt.Stringer.
func (l LockType) String() string {
	if l == LockExclusive {
		return "MPI_LOCK_EXCLUSIVE"
	}
	return "MPI_LOCK_SHARED"
}

// Env is the per-process view of the MPI runtime that applications
// program against — the interception surface. The base runtime's *Rank
// implements it directly; Casper wraps a *Rank and returns its own Env
// whose CommWorld is COMM_USER_WORLD and whose windows redirect RMA
// operations to ghost processes, exactly as the PMPI shim does in the
// paper (Section II).
type Env interface {
	// Rank returns this process's rank in the world this Env presents.
	Rank() int
	// Size returns the size of the world this Env presents.
	Size() int
	// CommWorld returns the world communicator of this Env. Under
	// Casper this is COMM_USER_WORLD, not MPI_COMM_WORLD.
	CommWorld() *Comm
	// WinAllocate collectively creates an RMA window of size local
	// bytes over comm, returning the window handle and the local
	// memory. Corresponds to MPI_WIN_ALLOCATE.
	WinAllocate(comm *Comm, size int, info Info) (Window, []byte)
	// Compute consumes d of virtual time in application computation
	// (outside MPI: no progress happens on software RMA targeted at
	// this process, unless an async progress mode provides it).
	Compute(d sim.Duration)
	// Now returns the current virtual time.
	Now() sim.Time
}

// Window is the RMA window handle applications use — the second half of
// the interception surface. All displacement and size arguments are in
// bytes; target ranks are ranks in the window's communicator.
type Window interface {
	// Active-target synchronization.
	Fence(assert Assert)
	Post(group []int, assert Assert)
	Start(group []int, assert Assert)
	Complete()
	Wait()

	// Passive-target synchronization.
	Lock(target int, lock LockType, assert Assert)
	Unlock(target int)
	LockAll(assert Assert)
	UnlockAll()
	Flush(target int)
	FlushAll()
	FlushLocal(target int)
	FlushLocalAll()
	Sync()

	// Communication operations. src/dst are origin-side contiguous
	// buffers; dt describes the target-side layout at byte
	// displacement disp of the target's window memory. An origin
	// payload (src, compare, origin) is copied before the call returns,
	// so the caller may overwrite it at once; a result buffer (dst,
	// result) belongs to the operation until a flush or the end of the
	// epoch completes it — the runtime writes it when the operation
	// takes effect at the target, which is before that, so until then
	// the caller may neither read nor write it. A result buffer shorter
	// than dt receives the leading bytes that fit.
	Put(src []byte, target int, disp int, dt Datatype)
	Get(dst []byte, target int, disp int, dt Datatype)
	RPut(src []byte, target int, disp int, dt Datatype) *RMARequest
	RGet(dst []byte, target int, disp int, dt Datatype) *RMARequest
	Accumulate(src []byte, target int, disp int, dt Datatype, op Op)
	GetAccumulate(src, result []byte, target int, disp int, dt Datatype, op Op)
	FetchAndOp(src, result []byte, target int, disp int, b BasicType, op Op)
	CompareAndSwap(compare, origin, result []byte, target int, disp int, b BasicType)

	// Free releases the window (collective).
	Free()
}

// Compile-time interface checks.
var (
	_ Env    = (*Rank)(nil)
	_ Window = (*Win)(nil)
)
