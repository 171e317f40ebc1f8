package policy

import "strconv"

// PredictiveConfig bounds the phase-transition sequence model.
type PredictiveConfig struct {
	// MinConfidence is the fraction of observed transitions out of a
	// phase that must agree before the model acts on a prediction.
	MinConfidence float64
	// MinSamples is how many times the winning transition must have
	// been observed before it counts as confident.
	MinSamples int
	// MaxPhases bounds the per-workload model: once this many distinct
	// phases are tracked, further phases are handled purely reactively
	// (the model never grows without bound on phase-churny tenants).
	MaxPhases int
}

// DefaultPredictiveConfig returns the tuning used by the "predictive"
// registry entry.
func DefaultPredictiveConfig() PredictiveConfig {
	return PredictiveConfig{MinConfidence: 0.6, MinSamples: 2, MaxPhases: 32}
}

// Predictive layers a per-workload phase-transition sequence model — a
// bounded first-order n-gram over the controller's phase keys, learned
// online from the same phase-change decisions the journal records — on
// top of the Reactive allocator (cf. learning-based dynamic cache
// management, Choi et al.). When a workload's phase transition lands on
// a confident prediction and the model remembers the new phase's
// preferred allocation, the policy sustains that allocation through the
// phase change instead of reclaiming to baseline; the controller then
// adopts the remembered baseline IPC and skips the re-measure dip
// entirely. Settled Keepers and idle Donors whose next phase is
// confidently predicted to want more cache are pre-granted ways from
// the free pool so the transition lands warm — an idle tenant with a
// known wake-up pattern gets its working set's ways back before the
// wake instead of re-earning them. On low confidence every decision
// falls back to
// Reactive unchanged. Workloads under post-arrival grace are exempt
// from learning and pre-grants: cold-cache refill phases are noise.
type Predictive struct {
	base   Reactive
	cfg    PredictiveConfig
	models map[string]*ModelState

	hits, misses int

	sust  []int
	pre   []preGrant
	notes []Note
}

type preGrant struct {
	idx    int
	target int
	conf   float64
	phase  int64 // the predicted phase; labelled only if granted
}

// NewPredictive returns a phase-predictive allocation policy.
func NewPredictive(cfg PredictiveConfig) *Predictive {
	return &Predictive{cfg: cfg, models: make(map[string]*ModelState)}
}

// Name implements AllocationPolicy.
func (p *Predictive) Name() string { return "predictive" }

// Stats reports the lifetime prediction hit/miss counters.
func (p *Predictive) Stats() (hits, misses int) { return p.hits, p.misses }

func phaseLabel(key int64) string { return "phase(" + strconv.FormatInt(key, 10) + ")" }

// Propose implements AllocationPolicy.
func (p *Predictive) Propose(v *View, g *Grants) {
	p.sust = p.sust[:0]
	p.pre = p.pre[:0]
	p.notes = p.notes[:0]
	for i := range v.Workloads {
		w := &v.Workloads[i]
		st := p.models[w.Name]
		if st == nil {
			st = &ModelState{}
			p.models[w.Name] = st
		}
		if w.Graced {
			// Post-arrival refill: phases observed now are cold-cache
			// noise. Track position only; learn and act once the grace
			// expires.
			st.Prev, st.PrevOK = w.PhaseKey, true
			continue
		}
		if st.PrevOK && st.Prev != w.PhaseKey {
			pred, conf, confident := p.predict(st, st.Prev)
			p.learn(st, st.Prev, w.PhaseKey)
			if confident {
				if pred == w.PhaseKey {
					p.hits++
					p.notes = append(p.notes, Note{
						Workload: i, Kind: NotePredictHit,
						Value: conf, Label: phaseLabel(pred),
					})
					// Sustain through the phase change: hold the
					// remembered preferred allocation (never more than
					// the ways already in hand — growth past that
					// resumes via table reuse after the adopt) rather
					// than dipping to baseline for a re-measure the
					// history can answer.
					if w.Category == Reclaim {
						if pw, ok := st.Pref[w.PhaseKey]; ok && pw >= w.Baseline {
							target := pw
							if target > w.Ways {
								target = w.Ways
							}
							if target >= w.Baseline {
								w.Desire = target
								p.sust = append(p.sust, i)
							}
						}
					}
				} else {
					p.misses++
					p.notes = append(p.notes, Note{
						Workload: i, Kind: NotePredictMiss,
						Value: conf, Label: phaseLabel(pred),
					})
				}
			}
		}
		st.Prev, st.PrevOK = w.PhaseKey, true
		// Remember the settled preferred allocation per phase — from
		// the curve, not the live way count, so pre-grants don't
		// inflate the record.
		if w.Settled && w.BaselineIPC > 0 {
			if pref, ok := w.Curve.Preferred(v.IPCImpThr / 2); ok {
				p.setPref(st, w.PhaseKey, pref)
			}
		}
		// Plan a pre-grant when a settled Keeper's (or an idle Donor's)
		// next phase is confidently predicted to prefer more cache than
		// the reactive pass will leave it. The "more than" check happens
		// at application time against the reactive grant — a Donor is
		// re-shrunk to its minimum every round, so comparing against the
		// currently held ways would oscillate.
		if (w.Settled && w.Category == Keeper) || w.Category == Donor {
			if pred, conf, ok := p.predict(st, w.PhaseKey); ok && pred != w.PhaseKey {
				if pw, ok := st.Pref[pred]; ok && pw >= w.Baseline {
					p.pre = append(p.pre, preGrant{
						idx: i, target: pw, conf: conf, phase: pred,
					})
				}
			}
		}
	}

	p.base.Propose(v, g)

	for _, i := range p.sust {
		g.Sustain[i] = true
	}
	g.Notes = append(g.Notes, p.notes...)

	// Pre-grants come out of whatever the reactive pass left free.
	free := v.TotalWays
	for _, w := range g.Ways {
		free -= w
	}
	for _, pg := range p.pre {
		if free <= 0 {
			break
		}
		delta := pg.target - g.Ways[pg.idx]
		if delta <= 0 {
			continue
		}
		if delta > free {
			delta = free
		}
		g.Ways[pg.idx] += delta
		free -= delta
		g.Notes = append(g.Notes, Note{
			Workload: pg.idx, Kind: NotePreGrant,
			Ways: g.Ways[pg.idx], Value: pg.conf, Label: phaseLabel(pg.phase),
		})
	}
}

// learn records one observed from→to phase transition, bounded by
// MaxPhases.
func (p *Predictive) learn(st *ModelState, from, to int64) {
	if st.Transitions == nil {
		st.Transitions = make(map[int64]map[int64]int)
	}
	tos := st.Transitions[from]
	if tos == nil {
		if len(st.Transitions) >= p.cfg.MaxPhases {
			return
		}
		tos = make(map[int64]int)
		st.Transitions[from] = tos
	}
	if _, ok := tos[to]; !ok && len(tos) >= p.cfg.MaxPhases {
		return
	}
	tos[to]++
}

// predict returns the most likely next phase out of from, with its
// confidence, when the model is confident enough to act. Equal counts
// resolve to the smallest phase key, so map order never decides.
func (p *Predictive) predict(st *ModelState, from int64) (to int64, conf float64, ok bool) {
	tos := st.Transitions[from]
	if len(tos) == 0 {
		return 0, 0, false
	}
	total := 0
	best, bestN := int64(0), 0
	for k, n := range tos {
		total += n
		if n > bestN || (n == bestN && n > 0 && k < best) {
			best, bestN = k, n
		}
	}
	conf = float64(bestN) / float64(total)
	if bestN < p.cfg.MinSamples || conf < p.cfg.MinConfidence {
		return 0, 0, false
	}
	return best, conf, true
}

func (p *Predictive) setPref(st *ModelState, phase int64, ways int) {
	if st.Pref == nil {
		st.Pref = make(map[int64]int)
	}
	if _, ok := st.Pref[phase]; !ok && len(st.Pref) >= p.cfg.MaxPhases {
		return
	}
	st.Pref[phase] = ways
}

// ExportModel implements Stateful.
func (p *Predictive) ExportModel(workload string) *ModelState {
	return p.models[workload].Clone()
}

// ImportModel implements Stateful.
func (p *Predictive) ImportModel(workload string, st *ModelState) {
	if st == nil {
		return
	}
	p.models[workload] = st.Clone()
}

// DropModel implements Stateful.
func (p *Predictive) DropModel(workload string) {
	delete(p.models, workload)
}
