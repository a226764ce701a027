package experiment

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestIDsComplete(t *testing.T) {
	t.Parallel()
	ids := IDs()
	if len(ids) != 27 {
		t.Fatalf("suite has %d experiments, want 27", len(ids))
	}
	if ids[0] != "E1" || ids[26] != "E27" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	t.Parallel()
	if _, err := RunExperiment("E99", ScaleSmall); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := RunExperiment("E1", Scale(0)); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

func TestRunExperimentCaseInsensitive(t *testing.T) {
	t.Parallel()
	rep, err := RunExperiment("e1", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "E1" {
		t.Fatalf("id = %s", rep.ID)
	}
}

// TestSuiteShapesHold is the headline integration test: every experiment in
// the suite must run at small scale and report that the paper's claimed
// shape holds. This is the executable form of EXPERIMENTS.md.
func TestSuiteShapesHold(t *testing.T) {
	t.Parallel()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := RunExperiment(id, ScaleSmall)
			if err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			if !rep.Pass {
				t.Errorf("%s: claimed shape violated:\n%s", id, rep)
			}
			out := rep.String()
			if !strings.Contains(out, rep.ID) || !strings.Contains(out, "paper claim") {
				t.Errorf("%s: malformed report:\n%s", id, out)
			}
			if len(rep.Tables) == 0 {
				t.Errorf("%s: no tables rendered", id)
			}
		})
	}
}

// probeTableDigests are the SHA-256 digests of the ScaleSmall E1, E4, E5 and
// E7 reports, recorded from a serial implementation that drew one Intn per
// ant in MeasureInitialGap and scanned the whole capture table in
// MeasureNestDelta.
var probeTableDigests = map[string]string{
	"E1": "8b0fa16af7f7f07b8cb9420cd45a2418ff73be7c54070f690609ab0b8dedc6ea",
	"E4": "4ec50fd57b939e2a5bc68b643773b0aec1c5e98d1f4d88e2f81b79e3de327b5c",
	"E5": "c0eaadb17877f210e99f041a193eb3a86c8e4492e26ebfe68d431036d7520a7a",
	"E7": "f8f80b0bb38f0ac1e401bfaf762429aae8fcdda4329a084a1f0902a98fe7dfd1",
}

// TestProbeTablesStable pins the parallel probe tables: each report must be
// identical with one worker and with four, and equal to the serial digest.
// Not parallel: it sets GOMAXPROCS for the whole process.
func TestProbeTablesStable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, id := range []string{"E1", "E4", "E5", "E7"} {
		var reports [2]string
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			rep, err := RunExperiment(id, ScaleSmall)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", id, procs, err)
			}
			if !rep.Pass {
				t.Errorf("%s at GOMAXPROCS=%d: claimed shape violated:\n%s", id, procs, rep)
			}
			reports[i] = rep.String()
		}
		if reports[0] != reports[1] {
			t.Errorf("%s: report differs between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", id, reports[0], reports[1])
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(reports[1]))); got != probeTableDigests[id] {
			t.Errorf("%s: report digest %s, serial digest %s:\n%s", id, got, probeTableDigests[id], reports[1])
		}
	}
}
