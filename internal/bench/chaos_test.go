package bench

import (
	"strings"
	"testing"
)

// TestOverlappingStallsKeepAMOrder replays the chaos seeds whose plans
// stall one ghost twice, the second stall starting inside the first. A
// stalled engine must apply the AMs it held in arrival order once the
// later stall ends; redelivering each at the end of the stall it arrived
// in put AMs of the first stall behind those of the second, and the
// validator reported ordering violations (seed 998: ghost 6 applied rank
// 4's seq 77 before its seq 25).
func TestOverlappingStallsKeepAMOrder(t *testing.T) {
	e, ok := Get("faultchaos")
	if !ok {
		t.Fatal("faultchaos not registered")
	}
	for _, seed := range []int64{494, 738, 878, 998} {
		res := e.Run(Options{ChaosSeed: seed})
		if res.Failed {
			var fails []string
			for _, n := range res.Notes {
				if strings.HasPrefix(n, "FAIL") {
					fails = append(fails, n)
				}
			}
			t.Errorf("seed %d: %s", seed, strings.Join(fails, "\n"))
		}
	}
}
