package gateway

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/faasflow"
)

// testdata/pins.golden was recorded through the gateway's per-feature
// deploy and run branches before they collapsed into one Deploy and one
// Run call. Each row replays a deploy, an invoke on one branch, a plain
// follow-up invoke, and GET /cluster, and must reproduce every response
// body byte for byte.

const pinWDL = `
name: router
steps:
  - name: ingest
    function: ingest
    output: 1048576
  - name: pick
    type: switch
    choices:
      - condition: "$tier == 'premium'"
        steps:
          - name: full
            function: full
            output: 524288
      - steps:
          - name: lite
            function: lite
            output: 65536
  - name: publish
    function: publish
`

const pinFunctions = `"functions":{"ingest":{"execSeconds":0.05},"full":{"execSeconds":0.8},"lite":{"execSeconds":0.1},"publish":{"execSeconds":0.05}}`

func pinCall(h http.Handler, method, path, tenant, body string) string {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return strings.TrimSpace(rec.Body.String())
}

func TestGatewayMatchesPinnedBehaviour(t *testing.T) {
	f, err := os.Open("testdata/pins.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, rest, _ := strings.Cut(sc.Text(), "\t")
		pins[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	wdl := strings.ReplaceAll(strings.ReplaceAll(pinWDL, "\n", `\n`), `"`, `\"`)
	kinds := []struct{ name, flags string }{
		{"plain", ``},
		{"fast", `,"fastPath":{"directPassing":true,"prewarm":true,"memoize":true}`},
		{"durable", `,"durable":true,"replicationFactor":2`},
		{"federated", `,"federated":true,"replicationFactor":2`},
	}
	branches := []struct{ name, tenant, body string }{
		{"default", "", `{"n":4}`},
		{"args", "", `{"n":4,"args":{"tier":"premium"}}`},
		{"tenant", "gold", `{"n":4}`},
		{"tenant-args", "gold", `{"n":4,"args":{"tier":"premium"}}`},
		{"open", "", `{"n":6,"ratePerMinute":30}`},
		{"open-tenant", "gold", `{"n":6,"ratePerMinute":30}`},
	}
	for _, k := range kinds {
		for _, b := range branches {
			name := k.name + "/" + b.name
			h := New(Config{Workers: 3, FaaStore: true, Seed: 1,
				AdmissionTenants: map[string]faasflow.TenantConfig{"gold": {Weight: 3}, "bronze": {Weight: 1}}}).Handler()
			got := strings.Join([]string{
				pinCall(h, http.MethodPost, "/workflows", "", `{"wdl":"`+wdl+`",`+pinFunctions+k.flags+`}`),
				pinCall(h, http.MethodPost, "/workflows/router/invoke", b.tenant, b.body),
				pinCall(h, http.MethodPost, "/workflows/router/invoke", "", `{"n":3}`),
				pinCall(h, http.MethodGet, "/cluster", "", ""),
			}, "\t")
			want, ok := pins[name]
			switch {
			case !ok:
				t.Errorf("%s: no pinned row", name)
			case got != want:
				t.Errorf("%s:\n got %s\nwant %s", name, got, want)
			}
			delete(pins, name)
		}
	}
	for name := range pins {
		t.Errorf("%s: pinned row not replayed", name)
	}
}
