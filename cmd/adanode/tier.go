package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/plfs"
	"repro/internal/tier"
	"repro/internal/vfs"
)

// Node-local tiering (-tier-spec). The served directory is treated as a
// two-tier container store: one subtree per backend, named after the spec's
// fast= and slow= backends (the layout adactl's store uses). The node runs
// the heat tracker and migration planner itself: every subset read it
// serves feeds heat, and the background migrator rebalances droppings
// between the subtrees. Remote clients resolve droppings through the
// on-disk .plfs_index the migrator updates atomically, so a migration is
// visible to them the same way it is to a local reader.
//
// The fast backend must be the store's canonical (first) backend — the one
// holding the container indexes.

// setupTiering builds the node-local store view, repairs any migration or
// ingest a crash interrupted, and returns the migrator (not yet running)
// plus the tracker the served read path should feed through tier.HeatFS.
func setupTiering(base vfs.FS, spec string) (*tier.Migrator, *tier.Tracker, error) {
	cfg, err := tier.ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	containers, err := plfs.New(
		plfs.Backend{Name: cfg.Fast, FS: base, Mount: "/" + cfg.Fast},
		plfs.Backend{Name: cfg.Slow, FS: base, Mount: "/" + cfg.Slow},
	)
	if err != nil {
		return nil, nil, err
	}
	a := core.New(containers, nil, core.Options{})
	if _, err := a.Recover(); err != nil {
		return nil, nil, fmt.Errorf("recover: %w", err)
	}
	trk := tier.NewTracker(tier.WallClock(), cfg.HalfLife)
	mig, err := tier.NewMigrator(a, containers, trk, cfg)
	if err != nil {
		return nil, nil, err
	}
	return mig, trk, nil
}
