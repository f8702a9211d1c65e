package tier

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Pin is a per-tag placement override that outranks heat.
type Pin int

const (
	// PinNone lets heat decide (the default).
	PinNone Pin = iota
	// PinFast keeps the tag on the fast backend: it is promoted like any
	// hot subset but never demoted, regardless of heat or watermarks.
	PinFast
	// PinNever excludes the tag from migration entirely — it stays where
	// ingest placed it.
	PinNever
)

func (p Pin) String() string {
	switch p {
	case PinFast:
		return "fast"
	case PinNever:
		return "never"
	default:
		return "none"
	}
}

// ParseSpec parses a -tier-spec flag value: comma-separated key=value
// pairs.
//
//	fast=ssd       fast backend name (required)
//	slow=hdd       slow backend name (required)
//	cap=64MiB      fast-backend capacity budget (required)
//	high=0.9       demotion trigger, fraction of cap
//	low=0.7        demotion target, fraction of cap
//	promote=1KiB   min decayed heat (bytes) to promote
//	halflife=60s   heat half-life (Go duration)
//	interval=5s    background planning period (Go duration)
//	max=0          max migrations per planning round (0 = unlimited)
//	pin=p:fast     per-tag override, repeatable; modes fast|never|none
//
// Sizes take optional K/M/G or KiB/MiB/GiB suffixes (both binary).
// Example:
//
//	-tier-spec fast=ssd,slow=hdd,cap=64MiB,high=0.9,low=0.7,halflife=5m
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Pins: map[string]Pin{}}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, fmt.Errorf("tier: spec field %q is not key=value", field)
		}
		var err error
		switch k {
		case "fast":
			cfg.Fast = v
		case "slow":
			cfg.Slow = v
		case "cap":
			cfg.CapacityBytes, err = ParseSize(v)
		case "high":
			cfg.HighWater, err = strconv.ParseFloat(v, 64)
		case "low":
			cfg.LowWater, err = strconv.ParseFloat(v, 64)
		case "promote":
			var n int64
			n, err = ParseSize(v)
			cfg.PromoteHeat = float64(n)
		case "halflife":
			var d time.Duration
			d, err = time.ParseDuration(v)
			cfg.HalfLife = d.Seconds()
		case "interval":
			cfg.Interval, err = time.ParseDuration(v)
		case "max":
			cfg.MaxMovesPerStep, err = strconv.Atoi(v)
		case "pin":
			tag, mode, ok := strings.Cut(v, ":")
			if !ok || tag == "" {
				return cfg, fmt.Errorf("tier: pin %q is not tag:mode", v)
			}
			switch mode {
			case "fast":
				cfg.Pins[tag] = PinFast
			case "never":
				cfg.Pins[tag] = PinNever
			case "none":
				delete(cfg.Pins, tag)
			default:
				return cfg, fmt.Errorf("tier: pin mode %q (want fast|never|none)", mode)
			}
		default:
			return cfg, fmt.Errorf("tier: unknown spec key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("tier: spec %s=%s: %w", k, v, err)
		}
	}
	if cfg.Fast == "" || cfg.Slow == "" {
		return cfg, fmt.Errorf("tier: spec needs fast= and slow= backends")
	}
	// Return the effective configuration so callers can build the tracker
	// (which needs HalfLife) before the migrator.
	cfg = cfg.withDefaults()
	return cfg, cfg.validate()
}

// ParseSize parses a non-negative byte count with an optional binary suffix:
// "64MiB", "8M", "1024". A count that overflows int64 is an error.
func ParseSize(s string) (int64, error) {
	orig := s
	mult := int64(1)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(s, suf.text) {
			s, mult = strings.TrimSuffix(s, suf.text), suf.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad size %q", orig)
	}
	return n * mult, nil
}
