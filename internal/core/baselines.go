package core

import (
	"fmt"
	"math/rand"

	"repro/internal/ilp"
	"repro/internal/rules"
	"repro/internal/smt"
	"repro/internal/vocab"
)

// Vanilla decodes with free sampling — no rules, no masking beyond the
// tokenizer's vocabulary — matching the paper's "Vanilla GPT-2" baseline.
// Generation stops when the grammar's final separator appears (or the
// context fills). Malformed outputs are re-sampled up to MaxRetries; the
// retry count is reported in Stats.Malformed.
func (e *Engine) Vanilla(known rules.Record, rng *rand.Rand) (Result, error) {
	var res Result
	prompt, fromSlot, err := e.promptFor(known)
	if err != nil {
		return res, err
	}
	lastSep := e.cfg.Slots[len(e.cfg.Slots)-1].Sep

	for retry := 0; retry <= e.cfg.MaxRetries; retry++ {
		text, toks, err := e.freeSample(prompt, lastSep, rng)
		if err != nil {
			return res, err
		}
		res.Stats.Tokens += toks
		vals, perr := e.parseBySlots(text, fromSlot)
		if perr != nil {
			res.Stats.Malformed++
			continue
		}
		res.Rec = e.assemble(known, fromSlot, vals)
		return res, nil
	}
	return res, fmt.Errorf("core: free sampling produced no well-formed record in %d attempts", e.cfg.MaxRetries+1)
}

// freeSample runs unconstrained sampling until stopByte, EOS, or the context
// limit, returning the generated text.
func (e *Engine) freeSample(prompt string, stopByte byte, rng *rand.Rand) (string, int, error) {
	sess, err := e.newPromptedSession(prompt)
	if err != nil {
		return "", 0, err
	}
	// All character tokens plus EOS are fair game; PAD/BOS are excluded
	// (the model never saw them mid-sequence).
	allowed := make([]int, 0, e.cfg.Tok.Size())
	for id := vocab.FirstChar; id < e.cfg.Tok.Size(); id++ {
		allowed = append(allowed, id)
	}
	allowed = append(allowed, vocab.EOS)

	var out []byte
	toks := 0
	// Generous cap: the longest legal record plus slack.
	maxLen := 0
	for _, s := range e.cfg.Slots {
		maxLen += e.maxDigits[s.Field] + 1
	}
	maxLen = maxLen*2 + 8
	for len(out) < maxLen {
		tok := e.sampleMasked(sess.Logits(), allowed, rng)
		toks++
		if tok == vocab.EOS {
			break
		}
		if err := sess.Append(tok); err != nil {
			break // context exhausted: return what we have
		}
		c := e.cfg.Tok.Char(tok)
		out = append(out, c)
		if c == stopByte {
			break
		}
	}
	return string(out), toks, nil
}

// Rejection implements the rejection-sampling baseline: sample freely and
// discard until the output satisfies every rule, up to MaxAttempts. The
// paper's Fig 3 shows why this is hopeless at scale — the model repeats the
// same mistakes because nothing guides it.
func (e *Engine) Rejection(known rules.Record, rng *rand.Rand) (Result, error) {
	if e.cfg.Rules == nil {
		return Result{}, fmt.Errorf("core: rejection sampling requires a rule set")
	}
	var agg Stats
	for attempt := 1; attempt <= e.cfg.MaxAttempts; attempt++ {
		agg.Attempts = attempt
		r, err := e.Vanilla(known, rng)
		if err != nil {
			return Result{Stats: agg}, err
		}
		agg.Tokens += r.Stats.Tokens
		agg.Malformed += r.Stats.Malformed
		vs, err := e.cfg.Rules.Violations(r.Rec)
		if err != nil {
			return Result{Stats: agg}, err
		}
		if len(vs) == 0 {
			r.Stats = agg
			return r, nil
		}
	}
	return Result{Stats: agg}, fmt.Errorf("core: rejection sampling exhausted %d attempts", e.cfg.MaxAttempts)
}

// PostHoc implements post-inference enforcement (§2.2, the NetDiffusion /
// Zoom2Net-CEM strategy): sample freely once, then, if any rule is violated,
// project the output onto the feasible region by L1-minimal integer repair.
// The projection guarantees compliance but optimizes numerical distance, not
// likelihood — the fidelity cost the paper measures.
func (e *Engine) PostHoc(known rules.Record, rng *rand.Rand) (Result, error) {
	if e.cfg.Rules == nil {
		return Result{}, fmt.Errorf("core: post-hoc repair requires a rule set")
	}
	res, err := e.Vanilla(known, rng)
	if err != nil {
		return res, err
	}
	vs, err := e.cfg.Rules.Violations(res.Rec)
	if err != nil {
		return res, err
	}
	if len(vs) == 0 {
		return res, nil
	}

	// Repair on a fresh solver (the engine's solver may be configured for
	// LeJIT mode; repair needs the rules regardless of engine mode). The
	// node budget is deliberately tight: ilp.Repair degrades gracefully to
	// the best incumbent when a probe exhausts it, mirroring the
	// time-limited ILPs of real CEM-style systems.
	s := smt.NewSolver()
	s.MaxNodes = 30_000
	if e.cfg.MaxNodes > 0 {
		s.MaxNodes = e.cfg.MaxNodes
	}
	b := rules.Instantiate(s, e.cfg.Schema)
	f, err := e.cfg.Rules.CompileAll(b)
	if err != nil {
		return res, err
	}
	s.Assert(f)
	// Pin the known prefix; repair only the generated slots.
	_, fromSlot, err := e.promptFor(known)
	if err != nil {
		return res, err
	}
	for fn, vals := range known {
		bv, _ := b.Vars(fn)
		for i, v := range vals {
			s.Assert(smt.Eq(smt.V(bv[i]), smt.C(v)))
		}
	}
	var free []smt.Var
	var targets []int64
	for _, slot := range e.cfg.Slots[fromSlot:] {
		bv, _ := b.Vars(slot.Field)
		free = append(free, bv[slot.Index])
		targets = append(targets, res.Rec[slot.Field][slot.Index])
	}
	checksBefore := s.Stats().Checks
	repaired, st := ilp.Repair(s, free, targets)
	res.Stats.SolverChecks += s.Stats().Checks - checksBefore
	if st != smt.Sat {
		return res, ErrInfeasible{Detail: fmt.Sprintf("repair %v", st)}
	}
	for i, slot := range e.cfg.Slots[fromSlot:] {
		res.Rec[slot.Field][slot.Index] = repaired[i]
	}
	res.Stats.Repaired = true
	return res, nil
}
