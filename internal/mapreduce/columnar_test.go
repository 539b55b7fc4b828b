package mapreduce

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

// TestColumnarFastPathParity runs every registered (mapper, reducer)
// kernel pair over a column-backed input and over a boxed copy of the same
// data; the column source engages only for the former, and the results
// must agree pair for pair.
func TestColumnarFastPathParity(t *testing.T) {
	nums := value.FromFloats([]float64{32, 212, 122, 32, -40, 98.6})
	words := value.FromStrings(strings.Fields("the quick fox the lazy dog the end"))
	cases := []struct {
		name  string
		input *value.List
		m     Mapper
		r     Reducer
	}{
		{"wordcount-strings", words, WordCount, SumReduce},
		{"wordcount-floats", nums, WordCount, SumReduce},
		{"climate", nums, FahrenheitToCelsius, AvgReduce},
		{"identity", nums, Identity, IdentityReduce},
		{"singlekey-count", nums, SingleKey, CountReduce},
		{"singlekey-sum", nums, SingleKey, SumReduce},
		{"identity-avg", nums, Identity, AvgReduce},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := planColumnRun(c.input, c.m, c.r); !ok {
				t.Fatal("column source did not engage for a registered kernel pair")
			}
			for _, w := range []int{1, 4} {
				fast, err := Run(c.input, c.m, c.r, Config{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				slow, err := Run(boxedCopy(c.input), c.m, c.r, Config{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				fs, ss := fast.Strings(), slow.Strings()
				if len(fs) != len(ss) {
					t.Fatalf("w=%d: columnar %v vs boxed %v", w, fs, ss)
				}
				for i := range fs {
					if fs[i] != ss[i] {
						t.Fatalf("w=%d row %d: columnar %q vs boxed %q", w, i, fs[i], ss[i])
					}
				}
			}
		})
	}
}

// TestColumnarPlanRefusals pins when the column source must NOT engage:
// boxed input, unregistered kernels, and a column kind the mapper has no
// kernel for all read the boxed items.
func TestColumnarPlanRefusals(t *testing.T) {
	nums := value.FromFloats([]float64{1, 2, 3})
	if _, ok := planColumnRun(value.NewList(value.Number(1)), WordCount, SumReduce); ok {
		t.Error("plan engaged for a boxed input")
	}
	closure := func(item value.Value) (string, value.Value, error) { return Identity(item) }
	if _, ok := planColumnRun(nums, closure, SumReduce); ok {
		t.Error("plan engaged for an unregistered mapper")
	}
	if _, ok := planColumnRun(nums, WordCount, func(k string, vs *value.List) (value.Value, error) {
		return SumReduce(k, vs)
	}); ok {
		t.Error("plan engaged for an unregistered reducer")
	}
}

// TestColumnarErrorParity pins failure wording across the two sources: a
// text column with a non-numeric cell must fail FahrenheitToCelsius with
// the generic path's exact error string.
func TestColumnarErrorParity(t *testing.T) {
	bad := value.FromStrings([]string{"32", "hot", "212"})
	_, fastErr := Run(bad, FahrenheitToCelsius, AvgReduce, Config{Workers: 2})
	_, slowErr := Run(boxedCopy(bad), FahrenheitToCelsius, AvgReduce, Config{Workers: 2})
	if fastErr == nil || slowErr == nil {
		t.Fatalf("expected errors, got %v / %v", fastErr, slowErr)
	}
	if fastErr.Error() != slowErr.Error() {
		t.Fatalf("error wording diverged:\n  columnar: %s\n  boxed:    %s", fastErr, slowErr)
	}
}

// The engine has one pipeline, but its map phase reads three item sources
// (boxed items, a float column, a string column), runs inline or on the
// worker pool, and serves both Go kernels and the mapReduce block's
// compiled ring kernels. The RunSeqParity tests hold the sequential kernel
// run (a reused FromKernels pair at 1 worker, as the mapReduce block runs
// it) and every other combination to one observable behavior: each case
// runs on a boxed copy of its input and on the input's own column, at 1
// and 4 workers, and through the kernel pair. Pairs and error wording must
// be identical across all runs.

// kernelsFor adapts a Mapper/Reducer to the sequential kernel shapes
// compile.SeqMapperRing and compile.SeqRing produce.
func kernelsFor(m Mapper, r Reducer) (func(args []value.Value) (string, value.Value, error), func(args []value.Value) (value.Value, error)) {
	mcall := func(args []value.Value) (string, value.Value, error) { return m(args[0]) }
	rcall := func(args []value.Value) (value.Value, error) { return r("", args[0].(*value.List)) }
	return mcall, rcall
}

// boxedCopy rebuilds a columnar list as a plain boxed list with identical
// contents, so the same run reads the boxed item source.
func boxedCopy(l *value.List) *value.List {
	return value.NewList(l.Items()...)
}

type parityCase struct {
	name  string
	input *value.List // column-backed; the boxed runs use a copy
	m     Mapper
	r     Reducer
	want  string // error text, or "" for success
}

// runParity runs every case through all engine combinations. One kernel
// pair serves every case in turn, the way a pooled pair serves one run
// after another.
func runParity(t *testing.T, cases []parityCase) {
	var curM Mapper
	var curR Reducer
	km, kr := FromKernels(kernelsFor(
		func(item value.Value) (string, value.Value, error) { return curM(item) },
		func(key string, vals *value.List) (value.Value, error) { return curR(key, vals) }))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				name string
				res  Result
				err  error
			}
			var runs []run
			for _, w := range []int{1, 4} {
				res, err := Run(boxedCopy(tc.input), tc.m, tc.r, Config{Workers: w})
				runs = append(runs, run{fmt.Sprintf("boxed/workers=%d", w), res, err})
				res, err = Run(tc.input, tc.m, tc.r, Config{Workers: w})
				runs = append(runs, run{fmt.Sprintf("column/workers=%d", w), res, err})
			}
			curM, curR = tc.m, tc.r
			res, err := Run(boxedCopy(tc.input), km, kr, Config{Workers: 1})
			runs = append(runs, run{"kernels", res, err})

			base := runs[0]
			if tc.want != "" {
				if base.err == nil || !strings.Contains(base.err.Error(), tc.want) {
					t.Fatalf("%s: err = %v, want containing %q", base.name, base.err, tc.want)
				}
			} else if base.err != nil {
				t.Fatalf("%s: %v", base.name, base.err)
			} else if base.res == nil || base.res.List().Len() != len(base.res) {
				t.Fatalf("%s: result %v is not a usable Result", base.name, base.res)
			}
			for _, r := range runs[1:] {
				if (r.err == nil) != (base.err == nil) || (r.err != nil && r.err.Error() != base.err.Error()) {
					t.Fatalf("error parity: %s %v, %s %v", base.name, base.err, r.name, r.err)
				}
				if got, want := strings.Join(r.res.Strings(), ", "), strings.Join(base.res.Strings(), ", "); got != want {
					t.Fatalf("pairs: %s [%s], %s [%s]", base.name, want, r.name, got)
				}
			}
		})
	}
}

func TestRunSeqParityEdges(t *testing.T) {
	many := make([]string, 0, smallShuffle+8)
	for i := 0; i < smallShuffle+8; i++ {
		many = append(many, fmt.Sprintf("w%02d", i%7))
	}
	runParity(t, []parityCase{
		{"empty input", value.NewList(), WordCount, SumReduce, ""},
		{"empty input identity", value.NewList(), Identity, IdentityReduce, ""},
		{"single item", value.FromStrings([]string{"only"}), WordCount, SumReduce, ""},
		{"single key", value.FromFloats([]float64{3, 1, 2}), SingleKey, IdentityReduce, ""},
		{"single key avg", value.FromFloats([]float64{32, 212, 122}), FahrenheitToCelsius, AvgReduce, ""},
		{"multi key", fig11Input("the quick brown fox jumps over the lazy dog the end"), WordCount, SumReduce, ""},
		{"at smallShuffle boundary", value.FromStrings(many[:smallShuffle]), WordCount, SumReduce, ""},
		{"past smallShuffle boundary", value.FromStrings(many), WordCount, SumReduce, ""},
	})
}

func TestRunSeqParityEmptyShape(t *testing.T) {
	// Beyond agreeing with the other runs, the kernel run's empty-input
	// result must be a usable empty Result: zero pairs, a zero-length
	// Snap! list, no error.
	m, r := FromKernels(kernelsFor(WordCount, SumReduce))
	res, err := Run(value.NewList(), m, r, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("res = %v, want empty", res.Strings())
	}
	if l := res.List(); l.Len() != 0 {
		t.Fatalf("List() = %s, want empty list", l)
	}
}

func TestRunSeqParityErrors(t *testing.T) {
	failMap := func(item value.Value) (string, value.Value, error) {
		if item.String() == "boom" {
			return "", nil, fmt.Errorf("no mapping for %s", item)
		}
		return WordCount(item)
	}
	panicMap := func(item value.Value) (string, value.Value, error) {
		if item.String() == "boom" {
			panic("mapper exploded")
		}
		return WordCount(item)
	}
	failReduce := func(key string, vals *value.List) (value.Value, error) {
		return nil, fmt.Errorf("no reduction")
	}
	panicReduce := func(key string, vals *value.List) (value.Value, error) {
		panic("reducer exploded")
	}
	boom := value.FromStrings([]string{"ok", "ok", "boom", "ok"})
	runParity(t, []parityCase{
		{"mapper error", boom, failMap, SumReduce, `map item 3: no mapping for boom`},
		{"mapper panic", boom, panicMap, SumReduce, `map item 3: mapper panic: mapper exploded`},
		{"reducer error", boom, WordCount, failReduce, `reduce key "boom": no reduction`},
		{"reducer panic", boom, WordCount, panicReduce, `reduce key "boom": reducer panic: reducer exploded`},
		{"column error", value.FromStrings([]string{"32", "hot", "212"}), FahrenheitToCelsius, AvgReduce,
			`map item 2: expecting a number but getting text "hot"`},
	})
}
