package execctl

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

// The reference controllers below are the Ager, Killer, Suspender and
// Throttler as they were when each kept its managed queries in a map keyed
// by query ID, and swept them by collecting and sorting the keys.

// refManaged is the record the map-keyed controllers kept per query.
type refManaged struct {
	Query *engine.Query
	Tier  int
}

func refManagedIDs(m map[int64]*refManaged, scratch []int64) []int64 {
	ids := scratch[:0]
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

type refAger struct {
	Engine             *engine.Engine
	Weights            []float64
	DemoteAfterSeconds []float64

	managed   map[int64]*refManaged
	sweepIDs  []int64
	demotions int64
	started   bool
}

func (a *refAger) Manage(m *refManaged) {
	a.managed[m.Query.ID] = m
	m.Tier = 0
	if len(a.Weights) > 0 {
		_ = a.Engine.SetWeight(m.Query.ID, a.Weights[0])
	}
	a.ensureStarted()
}

func (a *refAger) ensureStarted() {
	if a.started {
		return
	}
	a.started = true
	a.Engine.Sim().Every(ageCheckEvery, func() bool {
		a.sweep()
		return true
	})
}

func (a *refAger) sweep() {
	now := a.Engine.Now()
	a.sweepIDs = refManagedIDs(a.managed, a.sweepIDs)
	for _, id := range a.sweepIDs {
		m := a.managed[id]
		q := a.Engine.Get(id)
		if q == nil || q.State().Terminal() {
			delete(a.managed, id)
			continue
		}
		if m.Tier >= len(a.Weights)-1 {
			continue
		}
		elapsed := now.Sub(q.SubmittedAt()).Seconds()
		demote := m.Tier < len(a.DemoteAfterSeconds) && elapsed > a.DemoteAfterSeconds[m.Tier]
		if !demote {
			continue
		}
		m.Tier++
		a.demotions++
		_ = a.Engine.SetWeight(id, a.Weights[m.Tier])
	}
}

type refKiller struct {
	Engine            *engine.Engine
	MaxElapsedSeconds float64
	MaxRows           int64
	MaxCPUSeconds     float64

	managed  map[int64]*refManaged
	sweepIDs []int64
	kills    int64
	started  bool
}

func (k *refKiller) Manage(m *refManaged) {
	k.managed[m.Query.ID] = m
	k.ensureStarted()
}

func (k *refKiller) ensureStarted() {
	if k.started {
		return
	}
	k.started = true
	k.Engine.Sim().Every(killCheckEvery, func() bool {
		k.sweep()
		return true
	})
}

func (k *refKiller) sweep() {
	now := k.Engine.Now()
	k.sweepIDs = refManagedIDs(k.managed, k.sweepIDs)
	for _, id := range k.sweepIDs {
		q := k.Engine.Get(id)
		if q == nil || q.State().Terminal() {
			delete(k.managed, id)
			continue
		}
		elapsed := now.Sub(q.SubmittedAt()).Seconds()
		kill := k.MaxElapsedSeconds > 0 && elapsed > k.MaxElapsedSeconds ||
			k.MaxRows > 0 && q.RowsReturned() > k.MaxRows ||
			k.MaxCPUSeconds > 0 && q.CPUDone() > k.MaxCPUSeconds
		if !kill {
			continue
		}
		delete(k.managed, id)
		if err := k.Engine.Kill(id); err != nil {
			continue
		}
		k.kills++
	}
}

type refSuspender struct {
	Engine   *engine.Engine
	Pressure func() bool
	Strategy engine.SuspendStrategy

	managed  map[int64]*refManaged
	sweepIDs []int64
	suspends int64
	resumes  int64
	started  bool
}

func (s *refSuspender) Manage(m *refManaged) {
	s.managed[m.Query.ID] = m
	s.ensureStarted()
}

func (s *refSuspender) ensureStarted() {
	if s.started {
		return
	}
	s.started = true
	s.Engine.Sim().Every(suspendCheckEvery, func() bool {
		s.sweep()
		return true
	})
}

func (s *refSuspender) sweep() {
	pressure := s.Pressure()
	resumed := 0
	s.sweepIDs = refManagedIDs(s.managed, s.sweepIDs)
	for _, id := range s.sweepIDs {
		q := s.Engine.Get(id)
		if q == nil || q.State().Terminal() {
			delete(s.managed, id)
			continue
		}
		switch {
		case pressure && q.State() == engine.StateRunning:
			if err := s.Engine.Suspend(id, s.Strategy); err == nil {
				s.suspends++
			}
		case !pressure && q.State() == engine.StateSuspended && resumed < maxResumePerSweep:
			if err := s.Engine.Resume(id); err == nil {
				s.resumes++
				resumed++
			}
		}
	}
}

type refThrottler struct {
	Engine     *engine.Engine
	PerfRatio  func() float64
	Controller AmountController
	Method     ThrottleMethod

	managed     map[int64]*refManaged
	sweepIDs    []int64
	amount      float64
	started     bool
	nextPauseAt map[int64]sim.Time
}

func (t *refThrottler) Manage(m *refManaged) {
	t.managed[m.Query.ID] = m
	t.ensureStarted()
}

func (t *refThrottler) ensureStarted() {
	if t.started {
		return
	}
	t.started = true
	t.Engine.Sim().Every(throttlePeriod, func() bool {
		t.step()
		return true
	})
}

func (t *refThrottler) step() {
	t.amount = t.Controller.Update(t.PerfRatio())
	now := t.Engine.Now()
	t.sweepIDs = refManagedIDs(t.managed, t.sweepIDs)
	for _, id := range t.sweepIDs {
		q := t.Engine.Get(id)
		if q == nil || q.State().Terminal() {
			delete(t.managed, id)
			delete(t.nextPauseAt, id)
			continue
		}
		switch t.Method {
		case MethodConstant:
			_ = t.Engine.SetThrottle(id, t.amount)
		case MethodInterrupt:
			if now < t.nextPauseAt[id] {
				continue
			}
			if t.amount <= 0.01 {
				_ = t.Engine.SetThrottle(id, 0)
				continue
			}
			pause := sim.Duration(float64(interruptWindow) * t.amount)
			t.nextPauseAt[id] = now.Add(interruptWindow)
			_ = t.Engine.SetThrottle(id, 0.95)
			id := id
			t.Engine.Sim().Schedule(pause, func() {
				if q := t.Engine.Get(id); q != nil && !q.State().Terminal() {
					_ = t.Engine.SetThrottle(id, 0)
				}
			})
		}
	}
}

// varController returns whatever amount its owner last set.
type varController struct{ amount *float64 }

func (c varController) Name() string           { return "var" }
func (c varController) Update(float64) float64 { return *c.amount }

// ctlWorld is one engine with the four controllers over it, built either
// from the ID lists or from the map-keyed references. Both kinds read the
// same knobs, which the fuzz steps set alike in the two worlds.
type ctlWorld struct {
	sim      *sim.Simulator
	eng      *engine.Engine
	pressure bool
	amount   float64

	manage [4]func(id int64) // ager, killer, suspender, throttler
	sweep  [4]func()
	// lists renders each controller's managed IDs with the ager's tiers and
	// the throttler's next-pause instants.
	lists func() string
}

func newCtlWorld(reference bool, method ThrottleMethod) *ctlWorld {
	w := &ctlWorld{sim: sim.New(1)}
	w.eng = engine.New(w.sim, engine.Config{Cores: 2, IOMBps: 400, MemoryMB: 2048})
	pressure := func() bool { return w.pressure }
	ctrl := varController{amount: &w.amount}
	weights, demote := []float64{8, 4, 1}, []float64{0.6, 1.8}
	if reference {
		a := &refAger{Engine: w.eng, Weights: weights, DemoteAfterSeconds: demote,
			managed: map[int64]*refManaged{}}
		k := &refKiller{Engine: w.eng, MaxElapsedSeconds: 4, MaxRows: 150_000,
			managed: map[int64]*refManaged{}}
		s := &refSuspender{Engine: w.eng, Pressure: pressure, Strategy: engine.SuspendDumpState,
			managed: map[int64]*refManaged{}}
		t := &refThrottler{Engine: w.eng, PerfRatio: func() float64 { return 1 }, Controller: ctrl,
			Method: method, managed: map[int64]*refManaged{}, nextPauseAt: map[int64]sim.Time{}}
		w.manage = [4]func(int64){
			func(id int64) { a.Manage(&refManaged{Query: w.handle(id)}) },
			func(id int64) { k.Manage(&refManaged{Query: w.handle(id)}) },
			func(id int64) { s.Manage(&refManaged{Query: w.handle(id)}) },
			func(id int64) { t.Manage(&refManaged{Query: w.handle(id)}) },
		}
		w.sweep = [4]func(){a.sweep, k.sweep, s.sweep, t.step}
		w.lists = func() string {
			out := ""
			for _, id := range refManagedIDs(a.managed, nil) {
				out += fmt.Sprintf("a%d/%d ", id, a.managed[id].Tier)
			}
			for _, id := range refManagedIDs(k.managed, nil) {
				out += fmt.Sprintf("k%d ", id)
			}
			for _, id := range refManagedIDs(s.managed, nil) {
				out += fmt.Sprintf("s%d ", id)
			}
			for _, id := range refManagedIDs(t.managed, nil) {
				out += fmt.Sprintf("t%d/%d ", id, t.nextPauseAt[id])
			}
			return out
		}
		return w
	}
	a := NewAger(w.eng, weights, demote)
	k := NewKiller(w.eng, 4)
	k.MaxRows = 150_000
	s := NewSuspender(w.eng, pressure, engine.SuspendDumpState)
	t := NewThrottler(w.eng, func() float64 { return 1 }, ctrl, method)
	w.manage = [4]func(int64){a.Manage, k.Manage, s.Manage, t.Manage}
	w.sweep = [4]func(){a.sweep, k.sweep, s.sweep, t.sweep}
	w.lists = func() string {
		out := ""
		for _, m := range a.managed.queries {
			out += fmt.Sprintf("a%d/%d ", m.id, m.tier)
		}
		for _, m := range k.managed.queries {
			out += fmt.Sprintf("k%d ", m.id)
		}
		for _, m := range s.managed.queries {
			out += fmt.Sprintf("s%d ", m.id)
		}
		for _, m := range t.managed.queries {
			out += fmt.Sprintf("t%d/%d ", m.id, m.nextPause)
		}
		return out
	}
	return w
}

// handle stands in for the *engine.Query the map-keyed controllers were
// handed: the reference reads only its ID, so a query that has already left
// the engine gets a detached copy carrying the ID.
func (w *ctlWorld) handle(id int64) *engine.Query {
	if q := w.eng.Get(id); q != nil {
		return q
	}
	return &engine.Query{ID: id}
}

// snapshot renders everything a controller action can change: each
// submitted query's presence, state, weight, throttle and progress.
func (w *ctlWorld) snapshot(submitted int64) string {
	b := []byte(fmt.Sprintf("t=%d\n", w.sim.Now()))
	for id := int64(1); id <= submitted; id++ {
		q := w.eng.Get(id)
		if q == nil {
			b = fmt.Appendf(b, "%d gone\n", id)
			continue
		}
		b = fmt.Appendf(b, "%d %v w=%x th=%x cpu=%x\n", id, q.State(),
			math.Float64bits(q.Weight), math.Float64bits(q.Throttle), math.Float64bits(q.CPUDone()))
	}
	return string(b)
}

// FuzzManagedListMatchesMap drives two engines through the same random
// steps — submit, manage (often a query managed before), kill from outside,
// advance virtual time, flip the suspension pressure or the throttle amount,
// sweep one controller out of turn — one with the four controllers keeping
// their queries in ID-ordered lists, one with the map-keyed references. The
// engines must match after every step, and so must
// each controller's managed IDs, aging tiers and next-pause instants.
func FuzzManagedListMatchesMap(f *testing.F) {
	f.Add([]byte{0, 3, 0, 9, 1, 0, 1, 1, 1, 1, 1, 2, 1, 3, 3, 5, 3, 7, 4, 1, 3, 7, 2, 0, 3, 7})
	f.Add([]byte{0, 15, 0, 1, 0, 8, 1, 4, 1, 5, 1, 6, 1, 7, 4, 2, 3, 3, 5, 2, 4, 0, 3, 6, 5, 3, 3, 7, 3, 7})
	f.Add([]byte{0, 200, 1, 0, 1, 8, 3, 2, 1, 0, 5, 0, 3, 4, 1, 1, 3, 7, 3, 7, 3, 7})
	f.Add([]byte("0b9%11A1")) // an out-of-turn killer sweep kills on the row limit
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 256 {
			steps = steps[:256]
		}
		method := MethodConstant
		if len(steps) > 0 && steps[0]&0x80 != 0 {
			method = MethodInterrupt
		}
		worlds := [2]*ctlWorld{newCtlWorld(false, method), newCtlWorld(true, method)}
		list, ref := worlds[0], worlds[1]
		var submitted int64
		lastManaged := [4]int64{}
		arg := func(i int) byte {
			if i < len(steps) {
				return steps[i]
			}
			return 0
		}
		for i := 0; i < len(steps); i += 2 {
			op, x := steps[i]%6, arg(i+1)
			c := int(x % 4) // the controller a manage or sweep step addresses
			if op == 1 && (x&4 == 0 || lastManaged[c] == 0) {
				lastManaged[c] = 1 + int64(x/8)%max(submitted, 1)
			}
			for _, w := range worlds {
				switch op {
				case 0: // submit
					spec := engine.QuerySpec{CPUWork: 0.3 + float64(x%16)*0.4, IOWork: float64(x%5) * 20,
						Rows: int64(x) * 2000, MemMB: 64, StateMB: float64(x%4) * 30, Parallelism: 1}
					w.eng.Submit(spec, 1, nil)
				case 1: // manage, or manage again the controller's last query
					w.manage[c](lastManaged[c])
				case 2: // kill from outside the controllers
					_ = w.eng.Kill(1 + int64(x)%max(submitted, 1))
				case 3: // advance virtual time
					w.sim.Run(w.sim.Now().Add(sim.Duration(int(x%8)+1) * 150 * sim.Millisecond))
				case 4: // flip the pressure or set the throttle amount
					if x&1 == 0 {
						w.pressure = !w.pressure
					} else {
						w.amount = float64(x%20) / 20
					}
				case 5: // one controller sweeps out of turn
					w.sweep[c]()
				}
			}
			if op == 0 {
				submitted++
			}
			if got, want := list.snapshot(submitted), ref.snapshot(submitted); got != want {
				t.Fatalf("step %d (op %d arg %d): engines differ\nlists:\n%s\nmaps:\n%s", i/2, op, x, got, want)
			}
			if got, want := list.lists(), ref.lists(); got != want {
				t.Fatalf("step %d (op %d arg %d): managed lists differ\nlists: %s\nmaps:  %s", i/2, op, x, got, want)
			}
		}
	})
}
