package benchcase

import (
	"strings"
	"testing"
)

// TestEveryCaseRuns sets up every case at Parallelism 1 and runs its op
// once, so the table cannot rot between benchmark runs; the op's own
// self-checks (B11 delegates, B14 patches, answer and model counts)
// run too.
func TestEveryCaseRuns(t *testing.T) {
	for _, c := range Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			op, done, err := c.Setup(1)
			if err != nil {
				t.Fatal(err)
			}
			defer done()
			if _, err := op(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTableShape(t *testing.T) {
	names := map[string]bool{}
	gates := 0
	for _, c := range Cases {
		if names[c.Name] {
			t.Fatalf("duplicate case %s", c.Name)
		}
		names[c.Name] = true
		if !strings.HasPrefix(c.Name, "B") || !strings.Contains(c.Name, "/") {
			t.Fatalf("case %s is not named <experiment>/<variant>", c.Name)
		}
		if c.Gate != "" {
			gates++
			if c.Reps < 1 {
				t.Fatalf("gated case %s has block size %d", c.Name, c.Reps)
			}
		}
	}
	if gates != len(gated) {
		t.Fatalf("%d gated cases, want %d", gates, len(gated))
	}
}
