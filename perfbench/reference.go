package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"

	"repro/internal/blocks"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/runtime"
	"repro/internal/vclock"
	"repro/internal/vm"
)

// reference is the outcome a response must reproduce.
type reference struct {
	code      int
	status    string
	stage     []string
	trace     []string
	timesteps int64
	source    string // codegen bodies: the translated program
	// bad, when set, is why the reference itself is wrong (a paper
	// program that no longer gives the paper's result); every response
	// to the body then counts as a mismatch.
	bad string
}

// reply is the part of a /v1/run or /v1/codegen response that is checked
// (plus queue_ms, which the traced run reports).
type reply struct {
	Status    string   `json:"status"`
	Stage     []string `json:"stage"`
	Trace     []string `json:"trace"`
	Timesteps int64    `json:"timesteps"`
	QueueMS   int64    `json:"queue_ms"`
	Source    string   `json:"source"`
}

// errMismatch marks a well-formed response whose content differs from
// the reference.
var errMismatch = errors.New("response differs from the reference")

// check compares one response with the body's reference.
func (b *body) check(code int, raw []byte) (reply, error) {
	var r reply
	if b.ref.bad != "" {
		return r, fmt.Errorf("%w: %s", errMismatch, b.ref.bad)
	}
	if code != b.ref.code {
		return r, fmt.Errorf("HTTP %d, want %d", code, b.ref.code)
	}
	if code != http.StatusOK {
		return r, nil
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%w: undecodable: %v", errMismatch, err)
	}
	if b.path == "/v1/codegen" {
		if r.Source != b.ref.source {
			return r, fmt.Errorf("%w: codegen source", errMismatch)
		}
		return r, nil
	}
	switch {
	case r.Status != b.ref.status:
		return r, fmt.Errorf("%w: status %q, want %q", errMismatch, r.Status, b.ref.status)
	case !slices.Equal(r.Stage, b.ref.stage):
		return r, fmt.Errorf("%w: stage %q, want %q", errMismatch, r.Stage, b.ref.stage)
	case !slices.Equal(r.Trace, b.ref.trace):
		return r, fmt.Errorf("%w: trace differs", errMismatch)
	case b.paperTimesteps > 0 && r.Timesteps != b.ref.timesteps:
		return r, fmt.Errorf("%w: %d timesteps, want %d", errMismatch, r.Timesteps, b.ref.timesteps)
	}
	if b.expect != nil {
		if err := b.expect(r.Trace); err != nil {
			return r, fmt.Errorf("%w: %v", errMismatch, err)
		}
	}
	return r, nil
}

// daemonLimits mirrors snapserved's default flags: the house limits as
// both defaults and ceiling, and its process-wide value caps.
var daemonLimits = runtime.DefaultLimits

const (
	daemonMaxList = 1_000_000
	daemonMaxText = 1 << 20
)

// computeReferences fills every body's reference without the VM under
// test: runs go through the tree walker (vm disabled) under the daemon's
// limits and value caps, codegen bodies through the emitter directly.
func computeReferences(bodies []*body, workers int) error {
	vm.SetEnabled(false)
	defer vm.SetEnabled(true)
	mgr := runtime.NewManager(runtime.Config{
		MaxConcurrent: workers,
		Defaults:      daemonLimits,
		Ceiling:       daemonLimits,
	})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan *body)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				if err := b.computeReference(mgr); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("reference for body %s: %w", b.key, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, b := range bodies {
		next <- b
	}
	close(next)
	wg.Wait()
	return firstErr
}

func (b *body) computeReference(mgr *runtime.Manager) error {
	ent := elaborate(b.src)
	switch {
	case ent.ParseErr != "":
		return errors.New(ent.ParseErr)
	case len(ent.Fatal) > 0:
		b.ref = reference{code: http.StatusBadRequest}
		return nil
	}
	p := ent.Project
	if b.path == "/v1/codegen" {
		src, err := codegen.NewOpenMPEmitter().Program(greenFlagScript(p))
		if err != nil {
			b.ref = reference{code: http.StatusUnprocessableEntity}
			return nil
		}
		b.ref = reference{code: http.StatusOK, source: src}
		return nil
	}
	sess, err := mgr.Run(context.Background(), p, runtime.Limits{})
	if err != nil {
		return err
	}
	res, _ := sess.Result()
	if res.Status == runtime.StatusTimeout || res.Status == runtime.StatusFault {
		return fmt.Errorf("tree walker ended with %q: %s", res.Status, res.Error)
	}
	b.ref = reference{code: http.StatusOK, status: string(res.Status), stage: res.Stage, trace: res.Trace, timesteps: res.Timesteps}
	if b.paperTimesteps > 0 {
		if got := paperClockTimesteps(p); got != b.paperTimesteps {
			b.ref.bad = fmt.Sprintf("%d timesteps on the paper's clock, want %d", got, b.paperTimesteps)
		}
	}
	return nil
}

// paperClockTimesteps runs a concession-stand project on the paper's
// interference-calibrated clock, as internal/demos does, and returns the
// timestep of the last "full!". (Sessions run on the plain virtual
// clock, where the sequential stand takes 9 timesteps, not 12; the
// responses are checked against the tree walker on that clock.)
func paperClockTimesteps(p *blocks.Project) int64 {
	m := interp.NewMachine(p, vclock.NewPaperInterference())
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		return -1
	}
	var last int64
	for _, line := range m.Stage.TraceLines() {
		var t int64
		if strings.Contains(line, `says "full!"`) {
			if _, err := fmt.Sscanf(line, "[t=%d]", &t); err == nil && t > last {
				last = t
			}
		}
	}
	return last
}

// greenFlagScript is the script /v1/codegen translates: the project's
// first green-flag script.
func greenFlagScript(p *blocks.Project) *blocks.Script {
	for _, sp := range p.Sprites {
		for _, hs := range sp.Scripts {
			if hs.Hat == blocks.HatGreenFlag {
				return hs.Script
			}
		}
	}
	return nil
}
