package progcache_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/evo/gen"
	"repro/internal/parse"
	"repro/internal/progcache"
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

// evoBodies marshals n seeded evo/gen programs as /v1/run envelopes, each
// with pad extra scripts under message hats (long-tail's shape at 48).
func evoBodies(t testing.TB, n, pad int) [][]byte {
	rnd := rand.New(rand.NewSource(1))
	out := make([][]byte, 0, n)
	for len(out) < n {
		p := gen.Project(gen.Random(rnd, 32+rnd.Intn(224)))
		for i := 0; i < pad; i++ {
			p.Sprites[0].AddScript(blocks.HatBroadcast, fmt.Sprintf("idle%d", i), gen.Script(gen.Random(rnd, 32+rnd.Intn(224))))
		}
		src, err := parse.PrintProject(p)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(map[string]string{"project": src})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// decodedKey is what the backend keys Tier A on: the body decoded by
// json.Decoder, the program and the lowercased format hashed.
func decodedKey(body []byte) (key string, ok bool) {
	var env struct{ Project, Script, Format string }
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		return "", false
	}
	src := env.Project
	if src == "" {
		src = env.Script
	}
	return progcache.BodyHash(src, strings.ToLower(env.Format)), src != ""
}

// fastBodies must all take EnvelopeKey's scan.
var fastBodies = []string{
	`{"project":"(p)"}`,
	` {"project" : "(p)" , "format":"SBLK"}`,
	`{"project":"(p)"} trailing bytes the decoder never reads`,
	`{"project":"(a)","project":"(b)"}`,
	`{"project":"(p)","nested":{"project":"(q)","format":"xml"},"list":[1,-2.5e3,true,false,null,"s",[{}]]}`,
	`{"project":"","script":"(say 1)"}`,
	`{"script":"(say 1)","format":"Xml"}`,
	`{"project":"<project> & \"q\" \\ \/ \b\f\n\r\t"}`,
	`{"project":"pair \ud83d\ude00 lone high \ud800 x lone low \udc00 two highs \ud800\ud800"}`,
	`{"project":"high then escape \ud800\n end \ud800\\u0041"}`,
	"{\"project\":\"raw invalid UTF-8 \xff\xfe and \xed\xa0\x80\"}",
	"{\"project\":\"raw valid UTF-8 \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"}",
	`{"projects":"(x)","Lang":"c","project":"(p)","timeout_ms":100,"max_steps":5}`,
	`{"format":"sblk","project":"(p)","format":"XML"}`,
}

// slowBodies must all fall back to the decoder.
var slowBodies = []string{
	`{"Project":"(p)"}`,
	`{"PROJECT":"(p)"}`,
	`{"ſcript":"(p)"}`,
	`{"forMat":"xml","project":"(p)"}`,
	`{"\u0070roject":"(p)"}`,
	`{"project":null}`,
	`{"project":"(p)","project":null}`,
	`{"project":"(p)","script":5}`,
	`{"project":["(p)"]}`,
	`{"project":"(p)","format":"ẞLK"}`,
	`{"project":"","script":""}`,
	`{}`,
	`["(p)"]`,
	`"(p)"`,
	``,
	`{"project":"(p)"`,
	`{"project":"(p)",}`,
	`{"project":"(p)" "format":"xml"}`,
	`{"project":"bad \' escape"}`,
	`{"project":"bad \u12G4 escape"}`,
	"{\"project\":\"raw control \x01 byte\"}",
	"{\"project\":\"x\x1d\"}",
	`{"project":"(p)","n":01}`,
	`{"project":"(p)","n":1.}`,
	`{"project":"(p)","n":-}`,
	`{"project":"(p)","t":tru}`,
	"\xef\xbb\xbf{\"project\":\"(p)\"}",
	`{"project":"(p)","deep":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`,
}

func TestEnvelopeKeyMatchesDecoder(t *testing.T) {
	for _, body := range fastBodies {
		got, ok := progcache.EnvelopeKey([]byte(body))
		want, wantOK := decodedKey([]byte(body))
		if !ok || !wantOK {
			t.Errorf("%q: scan ok=%v, decoder ok=%v; want both", body, ok, wantOK)
			continue
		}
		if got != want {
			t.Errorf("%q: scanned key differs from the decoded key", body)
		}
	}
	for _, body := range slowBodies {
		if _, ok := progcache.EnvelopeKey([]byte(body)); ok {
			t.Errorf("%q: scan accepted a body it must leave to the decoder", body)
		}
	}
}

func FuzzEnvelopeKey(f *testing.F) {
	for _, b := range fastBodies {
		f.Add([]byte(b))
	}
	for _, b := range slowBodies {
		f.Add([]byte(b))
	}
	for _, b := range evoBodies(f, 8, 0) {
		f.Add(b)
	}
	e17, _ := json.Marshal(map[string]string{"project": e17Source()})
	f.Add(e17)
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := progcache.EnvelopeKey(body)
		if !ok {
			return
		}
		want, wantOK := decodedKey(body)
		if !wantOK {
			t.Fatalf("scan accepted %q, which json.Decoder rejects or reads no program from", body)
		}
		if got != want {
			t.Fatalf("%q: scanned key differs from BodyHash(program, lower(format))", body)
		}
	})
}
