package tier

import (
	"testing"
	"time"
)

func TestParseSpecFull(t *testing.T) {
	cfg, err := ParseSpec(
		"fast=ssd,slow=hdd,cap=64MiB,high=0.8,low=0.5,promote=2KiB,halflife=5m,interval=30s,max=3," +
			"pin=p:fast,pin=water:never,pin=m:fast,pin=m:none")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fast != "ssd" || cfg.Slow != "hdd" {
		t.Errorf("backends = %q/%q", cfg.Fast, cfg.Slow)
	}
	if cfg.CapacityBytes != 64<<20 {
		t.Errorf("cap = %d", cfg.CapacityBytes)
	}
	if cfg.HighWater != 0.8 || cfg.LowWater != 0.5 {
		t.Errorf("watermarks = %g/%g", cfg.HighWater, cfg.LowWater)
	}
	if cfg.PromoteHeat != 2048 {
		t.Errorf("promote = %g", cfg.PromoteHeat)
	}
	if cfg.HalfLife != 300 {
		t.Errorf("halflife = %g", cfg.HalfLife)
	}
	if cfg.Interval != 30*time.Second || cfg.MaxMovesPerStep != 3 {
		t.Errorf("interval = %v, max = %d", cfg.Interval, cfg.MaxMovesPerStep)
	}
	if cfg.Pins["p"] != PinFast || cfg.Pins["water"] != PinNever {
		t.Errorf("pins not installed: %v", cfg.Pins)
	}
	// pin=tag:none clears an earlier pin; an unpinned tag is PinNone.
	if len(cfg.Pins) != 2 || cfg.Pins["m"] != PinNone || cfg.Pins["ion"] != PinNone {
		t.Errorf("pins = %v, want p and water only", cfg.Pins)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	cfg, err := ParseSpec("fast=a,slow=b,cap=1024")
	if err != nil {
		t.Fatal(err)
	}
	// ParseSpec returns the effective config so callers can read HalfLife
	// (for the tracker) before building the migrator.
	if cfg.HighWater != 0.9 || cfg.LowWater != 0.7 || cfg.PromoteHeat != 1 ||
		cfg.HalfLife != 60 || cfg.Interval != 5*time.Second {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",                                     // missing everything
		"fast=a,cap=1M",                        // missing slow
		"fast=a,slow=b",                        // missing cap
		"fast=a,slow=b,cap=0",                  // zero cap
		"fast=a,slow=b,cap=1M,bogus=1",         // unknown key
		"fast=a,slow=b,cap=nope",               // bad size
		"fast=a,slow=b,cap=1M,high=x",          // bad float
		"fast=a,slow=b,cap=1M,pin=p",           // pin without mode
		"fast=a,slow=b,cap=1M,pin=p:up",        // unknown pin mode
		"fast,slow=b,cap=1M",                   // not key=value
		"fast=a,slow=b,cap=1M,halflife=60",     // duration without unit
		"fast=a,slow=b,cap=1M,interval=-1s",    // would panic the ticker
		"fast=a,slow=b,cap=1M,max=-1",          // negative move cap
		"fast=a,slow=b,cap=18014398509481985K", // wraps to 1 KiB
		"fast=a,slow=b,cap=1M,promote=-1K",     // would promote zero heat
		"fast=a,slow=b,cap=1M,high=NaN",        // every comparison false
		"fast=a,slow=b,cap=1M,low=NaN",         // every comparison false
		"fast=a,slow=b,cap=1M,low=-Inf",        // below zero
		"fast=a,slow=b,cap=1M,high=+Inf",       // above one
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", spec)
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"1024", 1024},
		{"4K", 4 << 10},
		{"4KiB", 4 << 10},
		{"8M", 8 << 20},
		{"8MiB", 8 << 20},
		{"2G", 2 << 30},
		{"2GiB", 2 << 30},
		{"8589934591G", 8589934591 << 30}, // the largest count of G that fits
		{"9223372036854775807", 1<<63 - 1},
	} {
		got, err := ParseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{
		"", "xMiB", "1.5M", "M",
		"-5M", "-1", // negative
		"8589934592G", "18014398509481985K", "9223372036854775808", // overflow
	} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) succeeded", bad)
		}
	}
}
