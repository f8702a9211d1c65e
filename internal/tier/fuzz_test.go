package tier

import (
	"math/big"
	"strings"
	"testing"
)

// FuzzTierSpec holds the -tier-spec parser to its rule: no panic, and any
// spec it accepts has a positive capacity and finite watermarks with
// 0 < low <= high <= 1 — the planner multiplies them by the capacity. The
// spec's fields are also fed to ParseSize, which must return exactly the
// count times its suffix's multiplier, or an error, never a value that
// wrapped.
func FuzzTierSpec(f *testing.F) {
	for _, seed := range []string{
		"fast=ssd,slow=hdd,cap=64MiB,high=0.9,low=0.7,halflife=5m",
		"fast=a,slow=b,cap=1,high=NaN",
		"fast=a,slow=b,cap=1,low=NaN",
		"fast=a,slow=b,cap=1,high=1e-300,low=1e-301",
		"fast=a,slow=b,cap=8589934591G,high=1,low=1",
		"fast=a,slow=b,cap=18014398509481985K",
		"fast=a,slow=b,cap=1M,pin=p:fast,pin=p:none,max=3,interval=1s,promote=2KiB",
		"fast=a,slow=b,cap= 9223372036854775807",
		",,=,fast=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if cfg, err := ParseSpec(spec); err == nil {
			if cfg.CapacityBytes <= 0 {
				t.Fatalf("%q: accepted with capacity %d", spec, cfg.CapacityBytes)
			}
			if !(0 < cfg.LowWater && cfg.LowWater <= cfg.HighWater && cfg.HighWater <= 1) {
				t.Fatalf("%q: accepted with low=%g high=%g", spec, cfg.LowWater, cfg.HighWater)
			}
		}
		for _, field := range strings.Split(spec, ",") {
			_, v, _ := strings.Cut(field, "=")
			checkParseSize(t, v)
		}
	})
}

// checkParseSize compares ParseSize(s) with the same count in arbitrary
// precision.
func checkParseSize(t *testing.T, s string) {
	t.Helper()
	got, err := ParseSize(s)
	if err != nil {
		return
	}
	digits, mult := s, int64(1)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(s, suf.text) {
			digits, mult = strings.TrimSuffix(s, suf.text), suf.mult
			break
		}
	}
	n, ok := new(big.Int).SetString(strings.TrimSpace(digits), 10)
	if !ok {
		t.Fatalf("ParseSize(%q) = %d, but %q is not a decimal count", s, got, digits)
	}
	if want := n.Mul(n, big.NewInt(mult)); got < 0 || want.Cmp(big.NewInt(got)) != 0 {
		t.Fatalf("ParseSize(%q) = %d, want %v", s, got, want)
	}
}
