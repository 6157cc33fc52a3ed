package main

import (
	"sort"
	"strings"
)

// The layer table: every leaf frame of a CPU profile lands in exactly
// one of these eleven buckets. Layers are module names; the Go runtime's
// share is split by what the simulator makes it do.
const (
	layerSim      = "sim"
	layerMPI      = "mpi"
	layerCore     = "core"
	layerNetmodel = "netmodel"
	layerApps     = "apps"
	layerFault    = "fault"
	layerSched    = "runtime.sched"
	layerGC       = "runtime.gc"
	layerMalloc   = "runtime.malloc"
	layerMem      = "runtime.mem"
	layerOther    = "other"
)

// layers lists the buckets in reporting order.
var layers = []string{
	layerSim, layerMPI, layerCore, layerNetmodel, layerApps, layerFault,
	layerSched, layerGC, layerMalloc, layerMem, layerOther,
}

// internalLayer maps every package under repro/internal/ to its layer. A
// package missing here fails TestEveryInternalPackageHasALayer, so a new
// package cannot silently fall into "other".
var internalLayer = map[string]string{
	"sim":      layerSim,
	"mpi":      layerMPI,
	"core":     layerCore,
	"netmodel": layerNetmodel,
	"cluster":  layerNetmodel, // placement is part of the platform model
	"bench":    layerApps,     // experiment bodies are workload code
	"ga":       layerApps,
	"tce":      layerApps,
	"stencil":  layerApps,
	"gups":     layerApps,
	"osu":      layerApps,
	"fault":    layerFault,
	"trace":    layerFault, // fault/service recording rides with the fault layer
}

// symbolFamily sends functions whose full name starts with one of the
// prefixes to a layer. Families are tried in order and the first match
// wins, so narrower prefixes (the GC's use of mspan, the scavenger's use
// of pageAlloc) come before the broader family they would otherwise join.
type symbolFamily struct {
	layer    string
	prefixes []string
}

// The prefixes were read off CPU profiles of every experiment the
// workloads run (go1.24); "other" stays under 0.10 on all six. When it
// grows, trace.json's top_other lists what to add.
var runtimeFamilies = []symbolFamily{
	// Collector: mark, sweep, scavenge, write barriers, assists, and the
	// stack unwinder that scanning goroutine stacks runs on.
	{layerGC, []string{
		"runtime.gc", "gcWriteBarrier", "runtime.scan", "runtime.greyobject", "runtime.mark",
		"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.deductSweepCredit",
		"runtime.(*gcWork)", "runtime.(*gcBits", "runtime.(*gcControllerState)", "runtime.newMarkBits",
		"runtime.(*sweepLock", "runtime.(*scaveng", "runtime.(*pageAlloc).scav", "runtime.madvise",
		"runtime.sysUnused", "runtime.wb", "runtime.(*wbBuf)", "runtime.bulkBarrier",
		"runtime.findObject", "runtime.spanOf", "runtime.typePointers", "runtime.(*mspan).typePointers",
		"runtime.(*mspan).markBits", "runtime.(*mspan).objIndex", "runtime.(*mheap).reclaim",
		"runtime.(*spanSet)", "runtime.(*lfstack)", "runtime.putfull", "runtime.handoff",
		"runtime.(*unwinder)", "runtime.(*stkframe)", "runtime.adjustframe", "runtime.pcvalue",
		"runtime.pcdatavalue", "runtime.funcspdelta", "runtime.funcInfo", "runtime.step",
		"runtime.(*moduledata)", "runtime.findfunc",
	}},
	// Allocator: size-class fast path, span and page allocation, zeroing,
	// and the allocation sampler.
	{layerMalloc, []string{
		"runtime.malloc", "runtime.nextFree", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap)", "runtime.(*mspan)", "runtime.(*pageAlloc)", "runtime.(*pallocBits)", "runtime.(*fixalloc)",
		"runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice",
		"runtime.memclr", "runtime.heapSetType", "runtime.deductAssistCredit", "runtime.roundupsize",
		"runtime.divRoundUp", "runtime.getMCache", "runtime.acquirem", "runtime.releasem",
		"runtime.convT", "runtime.slicebytetostring", "reflect.unsafe_New", "runtime.profilealloc",
		"runtime.mProf_Malloc", "runtime.stkbucket", "runtime.callers", "runtime.tracebackPCs",
	}},
	// Memory movement, maps and hashing.
	{layerMem, []string{
		"runtime.memmove", "runtime.typedmemmove", "runtime.typedslicecopy", "runtime.duff",
		"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.memequal",
		"runtime.strhash", "runtime.aeshash", "aeshashbody", "memeqbody", "internal/bytealg.",
	}},
	// Process switch: park and ready, channel handoff, futex, the
	// scheduler loop, goroutine creation and stacks, and the locks and
	// atomics under them — what sim.Proc being a goroutine costs.
	{layerSched, []string{
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.mcall",
		"runtime.schedule", "runtime.execute", "runtime.findRunnable", "runtime.chan", "runtime.send",
		"runtime.recv", "runtime.selectgo", "runtime.acquireSudog", "runtime.releaseSudog",
		"runtime.casgstatus", "runtime.(*guintptr)", "runtime.futex", "runtime.note", "runtime.mPark",
		"runtime.startm", "runtime.stopm", "runtime.wakep", "runtime.wirep", "runtime.pidle",
		"runtime.runq", "runtime.lock", "runtime.unlock", "runtime.nanotime", "runtime.(*timers)",
		"runtime.osyield", "runtime.usleep", "runtime.procyield", "runtime.asyncPreempt",
		"runtime.traceAcquire", "runtime.systemstack", "runtime.gogo", "gogo", "gosave_systemstack_switch",
		"runtime.morestack", "runtime.newstack", "runtime.copystack", "runtime.stackalloc",
		"runtime.stackfree", "runtime.goexit", "runtime.newproc", "runtime.malg", "runtime.gfget",
		"runtime.gfput", "runtime.gdestroy", "sync.", "sync/atomic.", "internal/runtime/atomic.",
	}},
}

// funcPackage returns the import path of the package a profile function
// name belongs to: "repro/internal/sim" for
// "repro/internal/sim.(*Engine).Run", also through generic
// instantiations whose type arguments contain slashes.
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

const internalPrefix = "repro/internal/"

// layerOf buckets one leaf as parseCPUProfile names it. Where the leaf is
// an inline chain, the innermost function with a layer of its own decides:
// math.Float64frombits inlined into mpi.GetFloat64s is mpi's time, and
// netmodel code inlined into mpi is still netmodel's.
func layerOf(leaf string) string {
	for _, fn := range strings.Split(leaf, inlineSep) {
		if l := layerOfFunc(fn); l != layerOther {
			return l
		}
	}
	return layerOther
}

func layerOfFunc(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, internalPrefix); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if l, ok := internalLayer[rest]; ok {
			return l
		}
		return layerOther
	}
	for _, fam := range runtimeFamilies {
		for _, p := range fam.prefixes {
			if strings.HasPrefix(fn, p) {
				return fam.layer
			}
		}
	}
	return layerOther
}

// bucketByLayer folds per-function CPU time into the eleven layers.
// Every layer is present in the result, zero or not.
func bucketByLayer(nsByLeaf map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for fn, ns := range nsByLeaf {
		out[layerOf(fn)] += ns
	}
	return out
}

// funcShare is one function's share of a profile's CPU time.
type funcShare struct {
	Func  string  `json:"func"`
	Share float64 `json:"share"`
}

// topOfLayer lists the n heaviest leaf functions of one layer, as shares
// of the whole profile — what to read when "other" grows.
func topOfLayer(nsByLeaf map[string]int64, layer string, n int) []funcShare {
	var total int64
	var out []funcShare
	for fn, ns := range nsByLeaf {
		total += ns
		if layerOf(fn) == layer {
			out = append(out, funcShare{Func: fn, Share: float64(ns)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Func < out[j].Func
	})
	if len(out) > n {
		out = out[:n]
	}
	for i := range out {
		out[i].Share /= float64(total)
	}
	return out
}
