package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/mining"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/vocab"
)

// corpus is the experiment input every workload decodes against: the
// simulated racks split into train and test, the rule set the workload
// enforces, and the trained model. The benchmark builds it at default scale
// from the fixed default seed, so the model is trained once per checkout;
// the workload seed only shapes the requests made against it.
type corpus struct {
	sc     experiments.ScaleConfig
	schema *rules.Schema
	tok    *vocab.Tokenizer
	test   []dataset.Window
	rules  *rules.RuleSet
	model  *nn.Model // nil for the serving workload, where lejitd loads it
}

// setupTimes splits one set-up into its steps (wall time) and records the
// CPU time the whole set-up used, lejitd's included.
type setupTimes struct {
	simulate, mine, load, engine, lejitd time.Duration
	cpu                                  time.Duration
}

func (s setupTimes) wall() time.Duration {
	return s.simulate + s.mine + s.load + s.engine + s.lejitd
}

// modelPath trains the default-scale model into the cache directory unless it
// is already there, and returns the file and its SHA-256. Training uses one
// gradient worker: with more, gradients merge in goroutine completion order
// and the weights differ from run to run.
func modelPath(sc experiments.ScaleConfig, cacheDir string) (string, string, error) {
	key := fmt.Sprintf("r%d_w%d_t%d_d%d_l%d_h%d_e%d_s%d", sc.Racks, sc.WindowsPerRack, sc.TrainRacks,
		sc.ModelDim, sc.ModelLayers, sc.ModelHeads, sc.Epochs, sc.Seed)
	path := filepath.Join(cacheDir, "model_"+key+".gob")
	if _, err := os.Stat(path); err != nil {
		if err := trainModel(sc, path); err != nil {
			return "", "", err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", "", err
	}
	return path, hex.EncodeToString(h.Sum(nil)), nil
}

func trainModel(sc experiments.ScaleConfig, path string) error {
	train, _ := splitCorpus(sc)
	tok := vocab.Telemetry()
	seqs, err := experiments.Corpus(tok, train)
	if err != nil {
		return err
	}
	m, err := nn.New(nn.Config{Vocab: tok.Size(), Ctx: 48, Dim: sc.ModelDim, Heads: sc.ModelHeads, Layers: sc.ModelLayers}, sc.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: training the model (%d parameters, %d sequences, one worker)\n",
		m.NumParams(), len(seqs))
	if _, err := m.Train(seqs, nn.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed, Workers: 1}); err != nil {
		return fmt.Errorf("training: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// splitCorpus simulates the racks and splits them by rack.
func splitCorpus(sc experiments.ScaleConfig) (train, test []dataset.Window) {
	ws := dataset.Generate(dataset.Config{Racks: sc.Racks, WindowsPerRack: sc.WindowsPerRack, Seed: sc.Seed})
	return dataset.Split(ws, sc.TrainRacks, sc.TestRacks)
}

// mineRules mines the imputation rule set (every field) or, with coarseOnly,
// the synthesis rule set (coarse fields only), exactly as the experiments do.
func mineRules(sc experiments.ScaleConfig, train []dataset.Window, schema *rules.Schema, coarseOnly bool) (*rules.RuleSet, error) {
	cfg := mining.Config{Slack: sc.MiningSlack, Coeffs: sc.MiningCoeffs}
	if coarseOnly {
		cfg.Fields = dataset.CoarseFields()
	}
	return mining.Mine(dataset.Records(train), schema, cfg)
}

// loadCorpus runs the in-process part of a workload's set-up: simulation,
// mining and, when modelFile is set, the model load.
func loadCorpus(sc experiments.ScaleConfig, coarseOnly bool, modelFile string) (*corpus, setupTimes, error) {
	var st setupTimes
	c := &corpus{sc: sc, schema: dataset.Schema(), tok: vocab.Telemetry()}
	t := time.Now()
	train, test := splitCorpus(sc)
	c.test = test
	st.simulate = time.Since(t)

	t = time.Now()
	rs, err := mineRules(sc, train, c.schema, coarseOnly)
	if err != nil {
		return nil, st, fmt.Errorf("mining: %w", err)
	}
	c.rules = rs
	st.mine = time.Since(t)

	if modelFile != "" {
		t = time.Now()
		f, err := os.Open(modelFile)
		if err != nil {
			return nil, st, err
		}
		c.model, err = nn.Load(f)
		f.Close()
		if err != nil {
			return nil, st, fmt.Errorf("loading %s: %w", modelFile, err)
		}
		st.load = time.Since(t)
	}
	return c, st, nil
}

// engineConfig is the configuration the experiments build for LeJIT
// decoding (experiments.Env.EngineFor), over an arbitrary LM so the traced
// run can wrap the model.
func (c *corpus) engineConfig(lm core.LM) (core.Config, error) {
	slots, err := core.TelemetryGrammar(c.schema, dataset.CoarseFields(), dataset.FineField)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		LM: lm, Tok: c.tok, Schema: c.schema, Rules: c.rules, Slots: slots,
		Mode: core.LeJIT, Temperature: c.sc.Temperature,
	}, nil
}
