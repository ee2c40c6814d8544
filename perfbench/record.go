package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"voltnoise/internal/service"
)

// How many requests of each seeded sequence recordDigests covers: more
// than a run of the default length completes.
const (
	recordSweeps = 160
)

// parseSeedRange parses "a-b" or a single seed.
func parseSeedRange(s string) (lo, hi int64, err error) {
	a, b, found := strings.Cut(s, "-")
	if lo, err = strconv.ParseInt(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("seed range %q: %w", s, err)
	}
	hi = lo
	if found {
		if hi, err = strconv.ParseInt(b, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("seed range %q: %w", s, err)
		}
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("seed range %q is empty", s)
	}
	return lo, hi, nil
}

// recordDigests prints one committed-digest line per request the
// workloads generate for the seeds (up to the record limits). Requests
// already in committed keep their digest; the rest are computed on a
// fresh server per seed.
func recordDigests(ctx context.Context, seeds string, committed map[string]string, out io.Writer) error {
	lo, hi, err := parseSeedRange(seeds)
	if err != nil {
		return err
	}
	for seed := lo; seed <= hi; seed++ {
		dep, err := deploy(ctx, nil, nil)
		if err != nil {
			return err
		}
		err = recordSeed(ctx, dep, seed, committed, out, seed == lo)
		dep.close()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// recordSeed prints the digest lines of one seed's requests, computed on
// dep; withWarmup adds the set-up sweep's line.
func recordSeed(ctx context.Context, dep *deployment, seed int64, committed map[string]string, out io.Writer, withWarmup bool) error {
	c := newClient(dep.url)
	defer closeClient(c)
	b := &bench{dep: dep, rec: newRecorder()}
	if withWarmup {
		if _, err := fmt.Fprintf(out, "%s %s\n", dep.warm.hash, dep.warm.sum); err != nil {
			return err
		}
	}
	var reqs []*service.Request
	g := newGen(seed)
	for i := 0; i < recordSweeps; i++ {
		reqs = append(reqs, g.sweep(0))
	}
	for _, req := range reqs {
		hash, err := req.Hash()
		if err != nil {
			return err
		}
		digest, ok := committed[hash]
		if !ok {
			f, err := b.cold(ctx, c, req, false)
			if err != nil {
				return err
			}
			digest = f.sum
		}
		if _, err := fmt.Fprintf(out, "%s %s\n", hash, digest); err != nil {
			return err
		}
	}
	return nil
}
