package jobs

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/popsim/popsize/internal/sweep"
)

// TestCloseWaitsForFinalPersist: a runner announces StateDone before it
// writes the done manifest, so Close must wait for every started runner,
// not only the non-terminal ones. Each round closes the manager the
// moment the job reports done and then reads the manifest from disk; a
// Close that returned early leaves it reading pending (or racing the
// tmp-file rename, which TempDir cleanup reports as a non-empty
// directory).
func TestCloseWaitsForFinalPersist(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		m := newTestManager(t, dir, 1, 0)
		j, err := m.Submit(sweep.SpecRequest{Experiments: []string{"fast"}, Ns: []int{4}, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, updated, st := j.RecordsFrom(0)
			if st == StateDone {
				break
			}
			if st.Terminal() {
				t.Fatalf("round %d: job ended %q, want done", round, st)
			}
			<-updated
		}
		m.Close()
		data, err := os.ReadFile(m.manifestPath(j.ID()))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var man manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatalf("round %d: manifest: %v", round, err)
		}
		if man.State != StateDone {
			t.Fatalf("round %d: manifest reads %q after Close, want %q", round, man.State, StateDone)
		}
	}
}
