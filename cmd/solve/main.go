// Command solve runs the Adaptive Search solver on one benchmark
// instance, sequentially or with parallel multi-walk, and prints the
// solution and execution statistics.
//
// Usage:
//
//	solve -problem costas -size 16 -walkers 8 -seed 42 -timeout 60s
//	solve -problem magic-square -size 10 -seed 42
//	solve -problem timetable -size 20 -param slots=6 -param rooms=4 -param teachers=4
//	solve -list
//
// With -walkers > 1 the run uses the paper's independent multi-walk
// scheme (first solution wins); -exchange enables the dependent
// (communicating) variant; -virtual executes walks sequentially and
// reports the deterministic iteration-count winner. -exchange and
// -virtual need -walkers > 1, and -exchange excludes -virtual: a
// combination that would be ignored or fail later is rejected before
// anything is built. A dependent run's timing decides who adopts what,
// so its counts vary from run to run; DESIGN.md §3 compares the two
// schemes with a lockstep runner whose counts are exact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/multiwalk"
	"repro/internal/problems"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "solve:", err)
		os.Exit(1)
	}
}

// config is one parsed invocation.
type config struct {
	problem           string
	size, walkers     int
	seed              uint64
	timeout           time.Duration
	exchange, virtual bool
	list, quiet       bool
	params            paramFlags
}

// parse reads args into a config and rejects flag combinations that
// would be ignored or fail later, before anything is built.
func parse(args []string, stderr io.Writer) (*config, error) {
	c := &config{params: paramFlags{}}
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.problem, "problem", "costas", "benchmark name (see -list)")
	fs.IntVar(&c.size, "size", 0, "instance size (0 = benchmark default)")
	fs.IntVar(&c.walkers, "walkers", 1, "parallel walkers (1 = sequential)")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.DurationVar(&c.timeout, "timeout", 2*time.Minute, "overall deadline")
	fs.BoolVar(&c.exchange, "exchange", false, "enable dependent multi-walk communication (requires -walkers > 1)")
	fs.BoolVar(&c.virtual, "virtual", false, "deterministic virtual multi-walk, winner by iterations (requires -walkers > 1)")
	fs.BoolVar(&c.list, "list", false, "list available benchmarks and exit")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress solution printing")
	fs.Var(c.params, "param", "benchmark parameter as key=value (repeatable), e.g. -param slots=6 -param rooms=4")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() > 0:
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.walkers <= 1 && c.exchange:
		return nil, fmt.Errorf("-exchange requires -walkers > 1")
	case c.walkers <= 1 && c.virtual:
		return nil, fmt.Errorf("-virtual requires -walkers > 1")
	case c.virtual && c.exchange:
		return nil, fmt.Errorf("-virtual and -exchange are mutually exclusive (dependent runs cannot be virtualized)")
	}
	return c, nil
}

// run is the whole command: it parses args, solves, and writes the
// result to stdout; flag usage goes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	c, err := parse(args, stderr)
	if err != nil {
		return err
	}
	if c.list {
		for _, name := range problems.Names() {
			info, err := problems.Describe(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-15s default=%-5d paper=%-5d max=%-6d %s\n", info.Name, info.DefaultSize, info.PaperSize, info.MaxSize, info.Description)
		}
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()

	p, err := problems.NewWithParams(c.problem, c.size, c.params)
	if err != nil {
		return err
	}
	opts := core.TunedOptions(p)
	opts.Seed = c.seed

	if c.walkers <= 1 {
		res, err := core.Solve(ctx, p, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s n=%d (sequential)\n%s\n", c.problem, p.Size(), res)
		if res.Solved && !c.quiet {
			printSolution(stdout, p, res.Solution)
		}
		return exitStatus(res.Solved)
	}

	factory, err := problems.NewFactoryParams(c.problem, c.size, c.params)
	if err != nil {
		return err
	}
	mopts := multiwalk.Options{Walkers: c.walkers, Seed: c.seed, Engine: opts}
	if c.exchange {
		mopts.Exchange = multiwalk.ExchangeOptions{Enabled: true}
	}
	var res multiwalk.Result
	if c.virtual {
		res, err = multiwalk.RunVirtual(ctx, factory, mopts)
	} else {
		res, err = multiwalk.Run(ctx, factory, mopts)
	}
	if err != nil {
		return err
	}
	mode := "independent multi-walk"
	if c.exchange {
		mode = "dependent multi-walk"
	}
	if c.virtual {
		mode += " (virtual)"
	}
	fmt.Fprintf(stdout, "%s n=%d, %d walkers, %s\n", c.problem, p.Size(), c.walkers, mode)
	if res.Solved {
		fmt.Fprintf(stdout, "SOLVED by walker %d in %d iterations (total work %d iters) in %v\n",
			res.Winner, res.WinnerIterations, res.TotalIterations, res.Elapsed)
		if !c.quiet {
			printSolution(stdout, p, res.Solution)
		}
	} else {
		fmt.Fprintf(stdout, "UNSOLVED (total work %d iters) in %v\n", res.TotalIterations, res.Elapsed)
	}
	for _, w := range res.Walkers {
		status := "lost"
		if w.Result.Solved {
			status = "solved"
		} else if w.Result.Interrupted {
			status = "cancelled"
		}
		fmt.Fprintf(stdout, "  walker %d: %-9s iters=%-10d restarts=%-3d adoptions=%d\n",
			w.Walker, status, w.Result.Iterations, w.Result.Restarts, w.Adoptions)
	}
	return exitStatus(res.Solved)
}

// paramFlags collects repeated -param key=value pairs into the
// problem-parameter map the finite-domain benchmarks consume.
type paramFlags map[string]int

func (p paramFlags) String() string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	return strings.Join(parts, ",")
}

func (p paramFlags) Set(s string) error {
	key, valStr, ok := strings.Cut(s, "=")
	if !ok || key == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	v, err := strconv.Atoi(valStr)
	if err != nil {
		return fmt.Errorf("non-integer value in %q", s)
	}
	p[key] = v
	return nil
}

func exitStatus(solved bool) error {
	if !solved {
		return fmt.Errorf("no solution found within the deadline")
	}
	return nil
}

// printSolution renders a solution with benchmark-specific formatting
// where it helps (grids for magic-square and costas, letter assignments
// for alpha).
func printSolution(w io.Writer, p core.Problem, sol []int) {
	switch t := p.(type) {
	case *problems.MagicSquare:
		n := t.Side()
		for r := 0; r < n; r++ {
			var b strings.Builder
			for c := 0; c < n; c++ {
				fmt.Fprintf(&b, "%4d", sol[r*n+c]+1)
			}
			fmt.Fprintln(w, b.String())
		}
	case *problems.Costas:
		n := len(sol)
		for row := n - 1; row >= 0; row-- {
			var b strings.Builder
			for col := 0; col < n; col++ {
				if sol[col] == row {
					b.WriteString(" X")
				} else {
					b.WriteString(" .")
				}
			}
			fmt.Fprintln(w, b.String())
		}
	case *problems.Alpha:
		fmt.Fprintln(w, t.Letters(sol))
	default:
		fmt.Fprintln(w, sol)
	}
}
