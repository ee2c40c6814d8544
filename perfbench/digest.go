package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
)

// digestsFile holds the committed result digests: one line per request,
// "<canonical request hash> <sha256 of the result bytes>". Scheduling
// knobs (workers, batch) are excluded from the request hash, so
// sweep-lane and sweep-batched share one digest set by construction:
// a width that changed the bytes would fail here.
//
//go:embed digests.txt
var digestsFile string

// parseDigests reads the committed digest table.
func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 || len(f[0]) != 64 || len(f[1]) != 64 {
			return nil, fmt.Errorf("digests.txt:%d: want \"<request hash> <result sha256>\"", line)
		}
		if prev, ok := out[f[0]]; ok && prev != f[1] {
			return nil, fmt.Errorf("digests.txt:%d: request %s listed with two digests", line, f[0])
		}
		out[f[0]] = f[1]
	}
	return out, sc.Err()
}

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkBlob verifies result bytes for a request: against the done
// event's sum (doneSum, when the caller has one), against the committed
// digest (when the request's seed was recorded) and against the sum
// this run saw earlier for the same request (known, when any).
func checkBlob(blob []byte, doneSum, committed, known string) error {
	got := sum(blob)
	switch {
	case doneSum != "" && got != doneSum:
		return fmt.Errorf("result sha256 %s != done event's %s", got, doneSum)
	case committed != "" && got != committed:
		return fmt.Errorf("result sha256 %s != committed digest %s", got, committed)
	case known != "" && got != known:
		return fmt.Errorf("result sha256 %s != %s seen earlier in this run", got, known)
	}
	return nil
}
