// segbus-bench regenerates every table and figure of the paper's
// evaluation (section 4) from this repository's implementation and
// prints side-by-side paper-versus-measured comparisons.
//
// Usage:
//
//	segbus-bench               # run all experiments
//	segbus-bench -exp E3       # run one experiment
//	segbus-bench -list         # list experiment ids
//	segbus-bench -markdown     # render results as the EXPERIMENTS.md table
//	segbus-bench -out DIR      # write per-experiment reports and figures
//
// Performance is measured elsewhere: `go test -bench` for the package
// microbenchmarks, and the segbench module for end-to-end workloads.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"segbus/internal/obs/profflag"
	"segbus/internal/paper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "segbus-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("segbus-bench", flag.ContinueOnError)
	exp := fs.String("exp", "", "run a single experiment by id (E1..E10)")
	list := fs.Bool("list", false, "list experiments and exit")
	markdown := fs.Bool("markdown", false, "render results as Markdown (EXPERIMENTS.md body)")
	outDir := fs.String("out", "", "write per-experiment reports and the regenerated figures (SVG/CSV) to this directory")
	pf := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if pf.PrintVersion(stdout) {
		return nil
	}
	if err := pf.Start(); err != nil {
		return err
	}
	defer pf.Stop(os.Stderr)

	if *list {
		for _, e := range paper.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *outDir != "" {
		written, err := paper.WriteArtifacts(*outDir)
		for _, path := range written {
			fmt.Fprintln(stdout, "wrote", path)
		}
		return err
	}

	experiments := paper.All()
	if *exp != "" {
		e, ok := paper.ByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		experiments = []paper.Experiment{e}
	}

	failed := 0
	for _, e := range experiments {
		res, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *markdown {
			printMarkdown(stdout, res)
		} else {
			fmt.Fprintln(stdout, res)
		}
		if !res.Pass() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their reproduction criteria", failed)
	}
	if !*markdown {
		fmt.Fprintf(stdout, "all %d experiment(s) passed their reproduction criteria\n", len(experiments))
	}
	return nil
}

func printMarkdown(w io.Writer, res *paper.Result) {
	fmt.Fprintf(w, "### %s — %s\n\n", res.ID, res.Title)
	fmt.Fprintln(w, "| Metric | Paper | Measured | OK |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, row := range res.Rows {
		ok := "yes"
		if !row.OK {
			ok = "**NO**"
		}
		metric := row.Metric
		if row.Note != "" {
			metric += " (" + row.Note + ")"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
			escapePipes(metric), escapePipes(row.Paper), escapePipes(row.Measured), ok)
	}
	if res.Text != "" {
		fmt.Fprintf(w, "\n```\n%s```\n", ensureNL(res.Text))
	}
	fmt.Fprintln(w)
}

func escapePipes(s string) string { return strings.ReplaceAll(s, "|", "\\|") }

func ensureNL(s string) string {
	if strings.HasSuffix(s, "\n") {
		return s
	}
	return s + "\n"
}
