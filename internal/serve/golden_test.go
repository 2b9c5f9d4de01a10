package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/served_bodies.txt from the current code")

const goldenPath = "testdata/served_bodies.txt"

// goldenPaths are the bodies TestServedBodiesGolden pins: the paper's
// §4 demand table and a §3 spread curve in both wire formats, and the
// fig3 experiment envelope.
var goldenPaths = []string{
	"/v1/demand/yelp?scale=small&seed=1",
	"/v1/demand/yelp?scale=small&seed=1&format=csv",
	"/v1/spread/banks/phone?scale=small&seed=1",
	"/v1/spread/banks/phone?scale=small&seed=1&format=csv",
	"/v1/experiments/fig3?scale=small&seed=1",
}

// servedDigest is the SHA-256 of a served body. An experiment
// envelope's elapsed_ms reports how long its build took, so it is
// zeroed first: two builds of one configuration differ there and
// nowhere else.
func servedDigest(t *testing.T, path string, data []byte) string {
	t.Helper()
	if strings.HasPrefix(path, "/v1/experiments/") {
		var env report.Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: decode envelope: %v", path, err)
		}
		for i := range env.Results {
			env.Results[i].ElapsedMS = 0
		}
		canon, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		data = canon
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestServedBodiesGolden pins the bytes and ETags the server returns
// against testdata/served_bodies.txt, which also records the
// core.HashVersion they were served under. ETags derive from the
// config hash, not from the bytes, so a body that changes while the
// version stays put would be revalidated 304 by every client and cache
// that holds the old one. Run with -update to rewrite the file after a
// version bump.
func TestServedBodiesGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var got strings.Builder
	got.WriteString("# path ETag sha256 (fig3 with elapsed_ms zeroed); regenerate: go test ./internal/serve -run TestServedBodiesGolden -update\n")
	fmt.Fprintf(&got, "version %s\n", core.HashVersion)
	served := make(map[string][2]string, len(goldenPaths))
	for _, path := range goldenPaths {
		status, h, data := get(t, ts, path, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, data)
		}
		served[path] = [2]string{h.Get("ETag"), servedDigest(t, path, data)}
		fmt.Fprintf(&got, "%s %s %s\n", path, h.Get("ETag"), served[path][1])
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	version, pinned := "", 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case strings.HasPrefix(sc.Text(), "#"):
		case len(fields) == 2 && fields[0] == "version":
			version = fields[1]
		case len(fields) == 3:
			want, ok := served[fields[0]]
			if !ok {
				t.Errorf("%s: pinned in %s but not served by the test", fields[0], goldenPath)
				continue
			}
			pinned++
			switch {
			case version != core.HashVersion:
				t.Fatalf("%s was recorded under Config.Hash version %q, the code is at %q: rerun with -update",
					goldenPath, version, core.HashVersion)
			case fields[2] != want[1]:
				t.Errorf("%s: body digest %s, pinned %s, while core.HashVersion is still %q: "+
					"bump core.HashVersion so no cache serves the old body under its ETag, then rerun with -update",
					fields[0], want[1], fields[2], version)
			case fields[1] != want[0]:
				t.Errorf("%s: ETag %s, pinned %s: the ETag derivation changed", fields[0], want[0], fields[1])
			}
		default:
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pinned != len(goldenPaths) {
		t.Errorf("%s pins %d bodies, the test serves %d: rerun with -update", goldenPath, pinned, len(goldenPaths))
	}
}
