package sim

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

// Tracker collects every engine created on goroutines it is bound to, so
// a job runner can Close them all once the job finishes — releasing the
// goroutines of processes still parked in abandoned engines. It mirrors
// the ambient-collector pattern of internal/metrics: the runner binds a
// tracker around a job, NewEngine registers with it, and nothing needs
// threading through the ~30 workload call sites.
type Tracker struct {
	mu         sync.Mutex
	engines    []*Engine
	cycleLimit Cycle // applied to engines at registration (0 = none)
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// SetCycleLimit makes every engine subsequently registered with the
// tracker carry a cycle budget (see Engine.SetCycleLimit) — the runner's
// per-job timeout. Engines that set their own limit keep it.
func (t *Tracker) SetCycleLimit(limit Cycle) {
	t.mu.Lock()
	t.cycleLimit = limit
	t.mu.Unlock()
}

// add records an engine. Called from NewEngine; safe from any goroutine.
func (t *Tracker) add(e *Engine) {
	t.mu.Lock()
	if t.cycleLimit != 0 && e.limit == 0 {
		e.limit = t.cycleLimit
	}
	t.engines = append(t.engines, e)
	t.mu.Unlock()
}

// Engines returns the collected engines in creation order.
func (t *Tracker) Engines() []*Engine {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Engine(nil), t.engines...)
}

// CloseAll closes every collected engine (idempotent per engine) and
// reports how many were closed. Call only when none of them is running.
func (t *Tracker) CloseAll() int {
	engines := t.Engines()
	for _, e := range engines {
		e.Close()
	}
	return len(engines)
}

// ambient maps goroutine id → bound tracker. Bind/lookup happen only at
// job boundaries and engine construction, never per event.
var (
	ambientMu sync.Mutex
	ambient   = map[uint64]*Tracker{}
)

// Bind attaches t to the calling goroutine and returns a release func
// that restores whatever was bound before. Engines built on this
// goroutine between Bind and release register themselves with t.
func (t *Tracker) Bind() (release func()) {
	id := goid()
	ambientMu.Lock()
	prev, had := ambient[id]
	ambient[id] = t
	ambientMu.Unlock()
	return func() {
		ambientMu.Lock()
		if had {
			ambient[id] = prev
		} else {
			delete(ambient, id)
		}
		ambientMu.Unlock()
	}
}

// ambientTracker returns the tracker bound to the calling goroutine, or
// nil if none is.
func ambientTracker() *Tracker {
	ambientMu.Lock()
	t := ambient[goid()]
	ambientMu.Unlock()
	return t
}

// AmbientCycleLimit returns the cycle budget the tracker bound to the
// calling goroutine applies to new engines (0 with no tracker or no
// budget). Memoized work keys on it: a budget can turn a run into a
// failure, so results computed under different budgets are not
// interchangeable.
func AmbientCycleLimit() Cycle {
	t := ambientTracker()
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cycleLimit
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). Called only at bind points and engine
// construction; the few-microsecond cost is irrelevant there.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, err := strconv.ParseUint(string(s), 10, 64)
	if err != nil {
		panic("sim: cannot parse goroutine id from stack header")
	}
	return id
}
