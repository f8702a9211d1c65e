package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCostModelBehindOneHook is a source-level guard: the virtual clock is
// reached through the ingest session's charge hook in cost.go and nowhere
// else. Outside that file no production source of this package may mention
// chargeCPU, read a.env, or name the sim package — but for the Env field and
// the constructor parameter in ada.go that carry it to the hook.
func TestCostModelBehindOneHook(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`chargeCPU|\.env\b|\bsim\.`)
	checked := 0
	for _, file := range files {
		if file == "cost.go" || strings.HasSuffix(file, "_test.go") {
			continue
		}
		checked++
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if file == "ada.go" {
				line = strings.ReplaceAll(line, "*sim.Env", "")
			}
			if m := banned.FindString(line); m != "" {
				t.Errorf("%s:%d mentions %q; virtual-clock accounting belongs in cost.go", file, i+1, m)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("guard looked at only %d source files; is it running in internal/core?", checked)
	}
}
