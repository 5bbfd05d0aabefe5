// Command crowdsim generates and inspects the simulated AMT crowd corpus
// used by the real-data experiments (Section 6.2): it prints the corpus
// statistics against the paper's published profile, compares the quality
// estimators (empirical / golden / Dawid–Skene EM) on it, and can export
// the raw answer matrix as CSV for external tooling.
//
// Usage:
//
//	crowdsim -stats
//	crowdsim -estimate -seed 7
//	crowdsim -export answers.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"repro/internal/amt"
	"repro/internal/quality"
	"repro/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crowdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crowdsim", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 1, "random seed")
		showStats  = fs.Bool("stats", false, "print corpus statistics")
		estimate   = fs.Bool("estimate", false, "compare quality estimators on the corpus")
		exportPath = fs.String("export", "", "write the answer matrix to this CSV file")
		workers    = fs.Int("workers", amt.DefaultNumWorkers, "number of simulated workers")
		tasks      = fs.Int("tasks", amt.DefaultNumTasks, "number of simulated tasks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*showStats && !*estimate && *exportPath == "" {
		return fmt.Errorf("nothing to do: pass -stats, -estimate, or -export <file>")
	}

	cfg := amt.DefaultConfig()
	cfg.NumWorkers = *workers
	cfg.NumTasks = *tasks
	if *workers != amt.DefaultNumWorkers || *tasks != amt.DefaultNumTasks {
		// Rescale the worker-class profile so shrunken corpora stay
		// feasible: heavy ≈ 1/64 of workers, one-HIT ≈ half of the
		// available assignment slots capped at the paper's 67/128 ratio.
		cfg.HeavyWorkers = *workers / 64
		if cfg.HeavyWorkers < 1 {
			cfg.HeavyWorkers = 1
		}
		hits := *tasks / cfg.TasksPerHIT
		slots := hits * (cfg.VotesPerTask - cfg.HeavyWorkers)
		oneHIT := *workers * 67 / 128
		if oneHIT > slots/2 {
			oneHIT = slots / 2
		}
		if oneHIT > *workers-cfg.HeavyWorkers-1 {
			oneHIT = *workers - cfg.HeavyWorkers - 1
		}
		if oneHIT < 0 {
			oneHIT = 0
		}
		cfg.OneHITWorkers = oneHIT
	}
	ds, err := amt.Generate(cfg, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}

	if *showStats {
		s := ds.Stats()
		t := table.New("Corpus statistics (paper's published profile in parentheses)", "metric", "value")
		t.AddRow("workers", fmt.Sprintf("%d (128)", s.NumWorkers))
		t.AddRow("tasks", fmt.Sprintf("%d (600)", s.NumTasks))
		t.AddRow("mean empirical quality", fmt.Sprintf("%.3f (0.71)", s.MeanEmpiricalQuality))
		t.AddRow("workers above 0.8", fmt.Sprintf("%d (40)", s.WorkersAbove80))
		t.AddRow("workers below 0.6", fmt.Sprintf("%d (~13)", s.WorkersBelow60))
		t.AddRow("answers per worker", fmt.Sprintf("%.2f (93.75)", s.AnswersPerWorkerMean))
		t.AddRow("workers answering all", fmt.Sprintf("%d (2)", s.WorkersAnsweringAll))
		t.AddRow("one-HIT workers", fmt.Sprintf("%d (67)", s.WorkersAnsweringOneHIT))
		fmt.Fprint(out, t.String())
	}

	if *estimate {
		qd := ds.QualityDataset()
		em, err := quality.EM(qd, quality.EMOptions{FixedPrior: 0.5})
		if err != nil {
			return err
		}
		golden, err := quality.Golden(qd, ds.GoldenTruths(len(ds.Tasks)/10))
		if err != nil {
			return err
		}
		var mae = func(estimates func(i int) float64) float64 {
			var sum float64
			for i, w := range ds.Workers {
				sum += math.Abs(estimates(i) - w.TrueQuality)
			}
			return sum / float64(len(ds.Workers))
		}
		t := table.New("Quality estimators: mean absolute error vs latent qualities",
			"estimator", "MAE", "ground truth used")
		t.AddRow("empirical", fmt.Sprintf("%.4f", mae(func(i int) float64 { return ds.Workers[i].EmpiricalQuality() })), "all tasks")
		t.AddRow("golden-10%", fmt.Sprintf("%.4f", mae(func(i int) float64 { return golden[i] })), "10% of tasks")
		t.AddRow("em", fmt.Sprintf("%.4f", mae(func(i int) float64 { return em.Qualities[i] })), "none")
		fmt.Fprint(out, t.String())
		// EM label accuracy, the headline of no-ground-truth estimation.
		correct := 0
		for i, task := range ds.Tasks {
			if em.Labels[i] == task.Truth {
				correct++
			}
		}
		fmt.Fprintf(out, "EM label accuracy (no ground truth): %.2f%%\n",
			100*float64(correct)/float64(len(ds.Tasks)))
	}

	if *exportPath != "" {
		f, err := os.Create(*exportPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := exportAnswers(ds, f); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d answers to %s\n", len(ds.Tasks)*len(ds.Tasks[0].Answers), *exportPath)
	}
	return nil
}

// exportAnswers writes one row per answer: task, truth, order, worker, vote.
func exportAnswers(ds *amt.Dataset, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "task,truth,order,worker,vote"); err != nil {
		return err
	}
	for _, task := range ds.Tasks {
		for i, ans := range task.Answers {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d\n",
				task.ID, task.Truth, i, ans.WorkerID, ans.Vote); err != nil {
				return err
			}
		}
	}
	return nil
}
