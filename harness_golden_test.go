package dhl_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/harness"
)

// TestHarnessFaultRunsGolden pins the two fault experiments no dhl-bench
// golden covers: the SEU failure-recovery runs and the NAT flow-state
// audit across fallback/reload. Both are fully deterministic from the
// seed, so any drift in the rendered results means the simulated model
// changed. Regenerate with: go test . -run HarnessFaultRunsGolden -update
func TestHarnessFaultRunsGolden(t *testing.T) {
	const path = "testdata/harness-fault-runs.golden"
	fo, err := harness.RunFailover(harness.FailoverConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := harness.RunFlowStateFailover(harness.FlowStateFailoverConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	fmt.Fprintf(&got, "failover seed=%d baseline_good_bps=%v\n", fo.Seed, fo.BaselineGoodBps)
	for _, run := range []harness.FailoverRun{fo.Baseline, fo.NoFallback, fo.Fallback} {
		fmt.Fprintf(&got, "%+v\n", run)
	}
	fmt.Fprintf(&got, "flowstate %+v\n", *fs)

	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fault-run results drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}
