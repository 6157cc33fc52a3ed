package main

import "time"

// span is one timed call the benchmark made into a layer (or one of its
// own phases): name, start, end, the span that caused it, and the pass
// it belongs to. Spans live in memory and are written out once, when a
// traced run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	PassID  int    `json:"pass_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_unix_ns"`
	EndNs   int64  `json:"end_unix_ns"`
}

// spanRecorder records nested spans made from one goroutine: begin
// pushes, the returned func pops, and the enclosing open span is the
// parent. A nil recorder records nothing, which is how untraced runs
// stay untraced.
type spanRecorder struct {
	passID int
	list   []span
	open   []int // indexes into list
}

func newSpanRecorder(passID int) *spanRecorder { return &spanRecorder{passID: passID} }

func (r *spanRecorder) begin(name string) (end func()) {
	if r == nil {
		return func() {}
	}
	s := span{ID: len(r.list) + 1, PassID: r.passID, Name: name, StartNs: time.Now().UnixNano()}
	if n := len(r.open); n > 0 {
		s.Parent = r.list[r.open[n-1]].ID
	}
	idx := len(r.list)
	r.list = append(r.list, s)
	r.open = append(r.open, idx)
	return func() {
		r.list[idx].EndNs = time.Now().UnixNano()
		r.open = r.open[:len(r.open)-1]
	}
}

func (r *spanRecorder) spans() []span {
	if r == nil {
		return nil
	}
	return r.list
}

// absorb appends spans recorded by a child process, renumbering them
// after this recorder's own and hanging the child's roots under the
// currently open span.
func (r *spanRecorder) absorb(child []span) {
	if r == nil {
		return
	}
	base := len(r.list)
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.list[r.open[n-1]].ID
	}
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		r.list = append(r.list, s)
	}
}
