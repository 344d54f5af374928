package bench

import (
	"bytes"
	"strings"
	"testing"
)

// smokeConfig is tiny: these tests check that every experiment runs and
// produces plausibly-shaped output, not performance.
func smokeConfig() Config {
	return Config{TPCHSF: 0.002, BIRows: 5_000, Reps: 1, Seed: 1, MaxCard: 1 << 15}
}

func TestFig4SmokeAndShape(t *testing.T) {
	var buf bytes.Buffer
	Fig4(&buf, smokeConfig())
	out := buf.String()
	if strings.Count(out, "\n") < 23 {
		t.Fatalf("Fig4 must print 22 query rows:\n%s", out)
	}
	if !strings.Contains(out, "Q1 ") || !strings.Contains(out, "Q22") {
		t.Error("missing query rows")
	}
}

func TestTable2Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf, smokeConfig())
	if !strings.Contains(buf.String(), "factor:") {
		t.Error("Table II output shape")
	}
}

func TestFig5Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig5(&buf, smokeConfig())
	if strings.Count(buf.String(), "%") < 22*3 {
		t.Error("Fig5 must print three improvement columns per query")
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table3(&buf, smokeConfig())
	out := buf.String()
	if strings.Count(out, "Q") < 20 {
		t.Fatalf("Table III must print 20 queries:\n%s", out)
	}
}

func TestFig6Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig6(&buf, smokeConfig())
	out := buf.String()
	for _, want := range []string{"Q1 vanilla", "Q1 ussr", "Q4 ussr", "hash computation"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig7(&buf, smokeConfig())
	if strings.Count(buf.String(), "x") < 9 {
		t.Error("Fig7 rows missing")
	}
}

func TestFig8Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig8(&buf, smokeConfig())
	out := buf.String()
	if !strings.Contains(out, "(a) 4 keys") || !strings.Contains(out, "(b) 2 keys") {
		t.Fatalf("Fig8 variants missing:\n%s", out)
	}
}

func TestFig9Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig9(&buf, smokeConfig())
	if strings.Count(buf.String(), "[0,") != 8 {
		t.Errorf("Fig9 must print 4 domains x 2 key counts:\n%s", buf.String())
	}
}

func TestTable4SmokeAndShape(t *testing.T) {
	var buf bytes.Buffer
	Table4(&buf, smokeConfig())
	out := buf.String()
	if strings.Count(out, "linear") != 3 || strings.Count(out, "concise") != 3 {
		t.Fatalf("Table IV must have 3 cardinalities per design:\n%s", out)
	}
}

func TestFig10Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig10(&buf, smokeConfig())
	if strings.Count(buf.String(), "\n") < 7 {
		t.Error("Fig10 rows missing")
	}
}

func TestFig11Smoke(t *testing.T) {
	var buf bytes.Buffer
	Fig11(&buf, smokeConfig())
	out := buf.String()
	if !strings.Contains(out, "groups=4") || !strings.Contains(out, "groups=1024") {
		t.Fatalf("Fig11 group variants missing:\n%s", out)
	}
}

func TestTable4CompressionWins(t *testing.T) {
	// The compressed table must undercut every baseline for wide records.
	ours := compressedFootprint(1<<14, 16, 1)
	for _, d := range []string{"linear", "concise", "chained"} {
		base := baselineFootprint(d, 1<<14, 16, 1)
		if base <= ours {
			t.Errorf("%s %dB should exceed compressed %dB", d, base, ours)
		}
	}
}

func TestScalingRunShape(t *testing.T) {
	cfg := smokeConfig()
	cfg.Workers = 2
	// Enough rows that the wide-group estimate clears the owner fill's
	// 2^13-group floor and the plan partitions.
	rep := ScalingRun(cfg, 20_000)
	if rep.Schema != "ocht-scaling/1" || rep.Cpus < 1 || rep.Gomaxprocs < 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if want := len(scalingPlans) * 3; len(rep.Points) != want {
		t.Fatalf("%d points, want %d", len(rep.Points), want)
	}
	byPlan := map[string][]ScalePoint{}
	for _, p := range rep.Points {
		byPlan[p.Plan] = append(byPlan[p.Plan], p)
		if p.Workers == 1 && p.Speedup != 1.0 {
			t.Errorf("%s w1 speedup %v, want 1", p.Plan, p.Speedup)
		}
		if p.TimeMs <= 0 || p.Groups <= 0 || p.MRowsPerSec <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	// The wide-group owner-width plan must actually fold over many partitions
	// under parallel workers; the low-cardinality Q1 plan must not.
	for _, p := range byPlan["widegroup-partitioned"] {
		if p.Workers > 1 && !p.PartitionWise {
			t.Errorf("widegroup-partitioned w%d did not go partition-wise", p.Workers)
		}
	}
	for _, p := range byPlan["q1-lowcard"] {
		if p.PartitionWise {
			t.Errorf("q1-lowcard w%d went partition-wise despite the floor", p.Workers)
		}
	}
	for _, p := range byPlan["widegroup-merge"] {
		if p.PartitionWise {
			t.Errorf("widegroup-merge w%d went partition-wise despite bits=0", p.Workers)
		}
	}
}

func TestScalingSmoke(t *testing.T) {
	var buf bytes.Buffer
	Scaling(&buf, smokeConfig())
	out := buf.String()
	for _, want := range []string{`"workers":1`, `"workers":2`, `"workers":4`, `"worker_ht_bytes"`, `"speedup"`} {
		if !strings.Contains(out, want) {
			t.Errorf("scaling output missing %q:\n%s", want, out)
		}
	}
	// The serial point reports no per-worker tables; parallel points must
	// report one footprint per worker.
	if !strings.Contains(out, `"worker_ht_bytes":[]`) {
		t.Error("workers=1 must report an empty footprint list")
	}
}
