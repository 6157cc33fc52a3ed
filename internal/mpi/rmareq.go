package mpi

import "repro/internal/sim"

// RMARequest is the handle of a request-based RMA operation
// (MPI_Rput/MPI_Rget). Unlike flush, waiting on it completes just this
// operation. Casper returns merged requests covering every split piece.
type RMARequest struct {
	r        *Rank
	pending  sim.CompletionSet
	children []*RMARequest
}

// NewMergedRMARequest aggregates several requests into one (used by
// layers that split an operation, like Casper's segment binding).
func NewMergedRMARequest(r *Rank, children ...*RMARequest) *RMARequest {
	return &RMARequest{r: r, children: children}
}

// Done reports whether the operation (and all children) completed.
func (q *RMARequest) Done() bool {
	if q.pending.Pending() > 0 {
		return false
	}
	for _, c := range q.children {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Wait blocks until the operation is complete at the origin: for RGet
// the destination buffer is filled; for RPut the data is remotely
// applied (this model's snapshot-at-issue semantics make local
// completion immediate, so the request tracks the stronger guarantee).
func (q *RMARequest) Wait() {
	q.r.mpiEnter()
	defer q.r.mpiLeave()
	q.pending.Wait(q.r.proc, "MPI_Wait(rma)")
	for _, c := range q.children {
		c.pending.Wait(q.r.proc, "MPI_Wait(rma)")
	}
}

// RPut issues a request-based put (MPI_RPUT).
func (w *Win) RPut(src []byte, target int, disp int, dt Datatype) *RMARequest {
	q := &RMARequest{r: w.r}
	o := w.newOp(KindPut, target, disp, dt, OpReplace)
	o.data, o.extra().req = src, q
	w.issue(o, nil)
	return q
}

// RGet issues a request-based get (MPI_RGET); Wait returns once dst is
// filled.
func (w *Win) RGet(dst []byte, target int, disp int, dt Datatype) *RMARequest {
	q := &RMARequest{r: w.r}
	o := w.newOp(KindGet, target, disp, dt, OpNoOp)
	o.dst, o.extra().req = dst, q
	w.issue(o, nil)
	return q
}
