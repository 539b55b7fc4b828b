package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/demos"
	"repro/internal/evo/gen"
	"repro/internal/parse"
	"repro/internal/progcache"
	"repro/internal/server"
)

// e17Source is the elaboration-heavy classroom project of
// BenchmarkE17RepeatedRun: 40 sprites of message-hat scripts.
func e17Source() string {
	var src strings.Builder
	src.WriteString("(project \"repeat\"\n")
	src.WriteString("  (sprite \"Main\" (when green-flag (do (say \"hi\"))))\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "  (sprite \"S%d\" (when (receive \"m%d\") (do", i, i)
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&src, " (say (join \"v%d-\" (+ %d %d)))", j, i, j)
		}
		src.WriteString(")))\n")
	}
	src.WriteString(")")
	return src.String()
}

// evoSources prints n seeded evo/gen programs, each with pad extra
// scripts under message hats (the long-tail workload's shape at 48).
func evoSources(t testing.TB, n, pad int) []string {
	rnd := rand.New(rand.NewSource(1))
	out := make([]string, 0, n)
	for len(out) < n {
		p := gen.Project(gen.Random(rnd, 32+rnd.Intn(224)))
		for i := 0; i < pad; i++ {
			p.Sprites[0].AddScript(blocks.HatBroadcast, fmt.Sprintf("idle%d", i), gen.Script(gen.Random(rnd, 32+rnd.Intn(224))))
		}
		src, err := parse.PrintProject(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, src)
	}
	return out
}

// paperSources are the paper-compute program shapes (Fig 5, Fig 11-12,
// Fig 13, the Fig 9/10 concession stands, a counting loop, a free-variable
// ring, a script-body ring) plus the committed XML projects.
func paperSources(t testing.TB) []string {
	greenFlag := func(name, script string) string {
		return fmt.Sprintf("(project %q\n  (sprite \"S\" (when green-flag (do %s)))\n)", name, script)
	}
	out := []string{
		greenFlag("fig5", "(say (combine (parallelmap (ring (* _ 10)) (numbers 1 6000) 4) (ring (+ _ _))))"),
		greenFlag("fig11", fmt.Sprintf("(say (mapreduce (ring (list _ 1)) (ring (combine _ (ring (+ _ _)))) (split %q \" \")))",
			"four score and seven years ago our fathers brought forth")),
		greenFlag("fig13", "(say (mapreduce (ring (/ (* 5 (- _ 32)) 9)) (ring (/ (combine _ (ring (+ _ _))) (length _))) (list 20 71 99)))"),
		greenFlag("count", "(declare n) (set n 0) (repeat 8000 (change n 1)) (say $n)"),
		greenFlag("freevar", "(declare k) (set k 3) (say (combine (parallelmap (ring (* _ $k)) (numbers 1 2000) 4) (ring (+ _ _))))"),
		greenFlag("scriptring", "(say (combine (parallelmap (ring (do (report (* _ 10)))) (numbers 1 2000) 4) (ring (+ _ _))))"),
	}
	for _, parallel := range []bool{true, false} {
		src, err := parse.PrintProject(demos.Concession(parallel))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, src)
	}
	xmls, _ := filepath.Glob("../../projects/*.xml")
	if len(xmls) == 0 {
		t.Fatal("no XML projects found")
	}
	for _, path := range xmls {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(src))
	}
	return out
}

func mustMarshal(t testing.TB, v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// backendKey is the Tier A key snapserved caches a /v1/run body under:
// the envelope decoded by json.Decoder, the program hashed with the
// lowercased format. ok is false when snapserved rejects the envelope or
// it names no project.
func backendKey(body []byte) (string, bool) {
	var req server.RunRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || req.Project == "" {
		return "", false
	}
	return progcache.BodyHash(req.Project, strings.ToLower(req.Format)), true
}

// TestPlacementKeyFastPath: every body shape the service sees — the E17
// classroom project as a run and as a codegen request, the paper's
// programs, and evo/gen programs — is placed by the raw-bytes scan, never
// by the decoding fallback, and on the backend's own key.
func TestPlacementKeyFastPath(t *testing.T) {
	e17 := e17Source()
	bodies := [][]byte{
		mustMarshal(t, server.RunRequest{Project: e17}),
		mustMarshal(t, server.CodegenRequest{Project: e17, Lang: "openmp"}),
	}
	for _, src := range append(paperSources(t), evoSources(t, 50, 0)...) {
		bodies = append(bodies, mustMarshal(t, server.RunRequest{Project: src}))
	}
	escaped := 0
	for _, body := range bodies {
		if bytes.Contains(body, []byte(`\u00`)) {
			escaped++
		}
		key, ok := progcache.EnvelopeKey(body)
		if !ok {
			t.Fatalf("body %.100q fell back to decoding", body)
		}
		if want := decodedKey(body); key != want || placementKey(body) != want {
			t.Fatalf("body %.100q: scanned key differs from the decoded one", body)
		}
	}
	if escaped == 0 {
		t.Fatal(`no body carries json.Marshal's <-style escapes; the table lost its point`)
	}
}

// TestPlacementKeyFollowsBackendDecoder: bodies the router once keyed
// differently from the backend. snapserved's json.Decoder reads only the
// first value (trailing bytes are ignored), folds key case, and caches on
// the lowercased format; the router's placement must agree on each.
func TestPlacementKeyFollowsBackendDecoder(t *testing.T) {
	for _, body := range []string{
		`{"project":"(p)"} x`,                   // scan, trailing bytes
		`{"Project":"(p)"} x`,                   // fallback, trailing bytes
		`{"project":"(p)","format":"SBLK"}`,     // scan, format case
		`{"PROJECT":"(p)","Format":"SBLK"}`,     // fallback, format case
		`{"project":"(p)","script":5}`,          // a member snapserved's run envelope lacks
		`{"project":"(p)","project":null}`,      // null leaves the earlier value
		`{"project":"(p)","format":"sblk"}[1,2`, // trailing garbage after a complete value
	} {
		want, ok := backendKey([]byte(body))
		if !ok {
			t.Fatalf("%q: snapserved must accept this body", body)
		}
		if placementKey([]byte(body)) != want {
			t.Errorf("%q: placed on a key snapserved does not cache under", body)
		}
	}
	if placementKey([]byte(`{"project":"(p)","format":"SBLK"}`)) != progcache.BodyHash("(p)", "sblk") {
		t.Error("format case must not split one program across two keys")
	}
}

func FuzzPlacementKey(f *testing.F) {
	e17 := e17Source()
	f.Add(mustMarshal(f, server.RunRequest{Project: e17}))
	for _, src := range evoSources(f, 8, 0) {
		f.Add(mustMarshal(f, server.RunRequest{Project: src, Format: "SBLK"}))
	}
	for _, b := range []string{
		`{"project":"(p)"} x`,
		`{"Project":"(p)"}`,
		`{"ſcript":"(p)","project":"(q)"}`,
		`{"\u0070roject":"(p)"}`,
		`{"project":null,"script":"(s)"}`,
		`{"project":"(p)","script":5}`,
		`{"project":"😀 \ud800 \udc00\ud800 <&>"}`,
		"{\"project\":\"\xff\xfe\",\"format\":\"Xml\"}",
		`{"project":"(p)","deep":[[[[{"a":[1e5,-0.5,true,null]}]]]]}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		key := placementKey(body)
		if want, ok := backendKey(body); ok && key != want {
			t.Fatalf("%q: placement key differs from snapserved's Tier A key", body)
		}
	})
}

var keySink string

// BenchmarkLayer/router_key prices the router's placement key on the E17
// body and a long-tail-shaped body: "decode" is the decoding fallback
// (what the router ran on every request before the scan), "scan" the
// raw-bytes scan placementKey takes first.
func BenchmarkLayer(b *testing.B) {
	bodies := []struct {
		name string
		body []byte
	}{
		{"e17", mustMarshal(b, server.RunRequest{Project: e17Source()})},
		{"long-tail", mustMarshal(b, server.RunRequest{Project: evoSources(b, 1, 48)[0]})},
	}
	for _, bd := range bodies {
		for _, path := range []struct {
			name string
			key  func([]byte) string
		}{{"decode", decodedKey}, {"scan", placementKey}} {
			b.Run("router_key/"+bd.name+"/"+path.name, func(b *testing.B) {
				b.SetBytes(int64(len(bd.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					keySink = path.key(bd.body)
				}
			})
		}
	}
}
