package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// Solve a 10×10 magic square with sequential Adaptive Search, then a
// Costas array with four independent walkers, the paper's parallel
// scheme. SolveParallelVirtual runs the walkers one after another and
// names the one with the fewest iterations the winner, so the output
// is the same on every machine; SolveParallel races them on real cores
// instead.
func Example() {
	ctx := context.Background()

	p, err := repro.NewProblem("magic-square", 10)
	if err != nil {
		panic(err)
	}
	opts := repro.TunedOptions(p)
	opts.Seed = 42
	res, err := repro.Solve(ctx, p, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("magic-square-10: solved=%v iterations=%d\n", res.Solved, res.Iterations)
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			fmt.Printf("%4d", res.Solution[r*10+c]+1)
		}
		fmt.Println()
	}

	factory, err := repro.NewProblemFactory("costas", 14)
	if err != nil {
		panic(err)
	}
	cp, err := repro.NewProblem("costas", 14)
	if err != nil {
		panic(err)
	}
	mres, err := repro.SolveParallelVirtual(ctx, factory, repro.MultiWalkOptions{
		Walkers: 4,
		Seed:    42,
		Engine:  repro.TunedOptions(cp),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("costas-14, 4 walkers: solved=%v winner=walker-%d after %d iterations (%d in all)\n",
		mres.Solved, mres.Winner, mres.WinnerIterations, mres.TotalIterations)
	// Output:
	// magic-square-10: solved=true iterations=8109
	//   78  63  73   5  59  10  65  42  38  72
	//   50  83   3  53  52  90   2  58  81  33
	//   92  96   1  79  48  60  91  15  16   7
	//   40   8  95  94  13  32  56  66  44  57
	//    9  30  26  55  69  24  82  18  93  99
	//   51  29  75  34  85  25  89  36  35  46
	//   97  27  68  21  98  37  12  45  23  77
	//    6  22  61  71   4  87  20  70  80  84
	//   39  47  17  62  49  64  74  88  54  11
	//   43 100  86  31  28  76  14  67  41  19
	// costas-14, 4 walkers: solved=true winner=walker-1 after 2290 iterations (13470 in all)
}

// Costas arrays are the paper's hardest benchmark (Fig. 3). Their
// runtimes are close to memoryless, so the mean winner iterations of k
// independent walkers shrink close to 1/k: the mechanism behind the
// paper's near-linear Costas speedup, here measured in iterations. A
// virtual run takes every walker to its solution, so the first k
// walkers of 200 eight-walker runs stand for 200 k-walker runs.
func ExampleSolveParallelVirtual() {
	ctx := context.Background()
	const order = 12
	factory, err := repro.NewProblemFactory("costas", order)
	if err != nil {
		panic(err)
	}
	p, err := repro.NewProblem("costas", order)
	if err != nil {
		panic(err)
	}
	engine := repro.TunedOptions(p)

	res, err := repro.SolveParallelVirtual(ctx, factory, repro.MultiWalkOptions{Walkers: 4, Seed: 7, Engine: engine})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Costas array of order %d (walker %d won after %d iterations):\n", order, res.Winner, res.WinnerIterations)
	for row := order - 1; row >= 0; row-- {
		for col := 0; col < order; col++ {
			if res.Solution[col] == row {
				fmt.Print(" X")
			} else {
				fmt.Print(" .")
			}
		}
		fmt.Println()
	}

	const runs = 200
	var sums [8]float64
	for seed := uint64(100); seed < 100+runs; seed++ {
		vres, err := repro.SolveParallelVirtual(ctx, factory, repro.MultiWalkOptions{Walkers: 8, Seed: seed, Engine: engine})
		if err != nil {
			panic(err)
		}
		winner := vres.Walkers[0].Result.Iterations
		for k, w := range vres.Walkers {
			winner = min(winner, w.Result.Iterations)
			sums[k] += float64(winner)
		}
	}
	for _, k := range []int{1, 2, 4, 8} {
		fmt.Printf("%d walkers: %6.0f iterations, speedup %.2f\n", k, sums[k-1]/runs, sums[0]/sums[k-1])
	}
	// Output:
	// Costas array of order 12 (walker 0 won after 116 iterations):
	//  . . . . X . . . . . . .
	//  . . . . . . . X . . . .
	//  . . . . . . X . . . . .
	//  . . . X . . . . . . . .
	//  . . . . . . . . . X . .
	//  . . . . . . . . . . . X
	//  X . . . . . . . . . . .
	//  . . . . . X . . . . . .
	//  . X . . . . . . . . . .
	//  . . . . . . . . . . X .
	//  . . . . . . . . X . . .
	//  . . X . . . . . . . . .
	// 1 walkers:    461 iterations, speedup 1.00
	// 2 walkers:    234 iterations, speedup 1.97
	// 4 walkers:    123 iterations, speedup 3.75
	// 8 walkers:     64 iterations, speedup 7.22
}

// A model that is not in the benchmark registry: the SEND + MORE =
// MONEY cryptarithm. Ten variables hold the digits 0-9 (a permutation);
// eight of them are the letters S, E, N, D, M, O, R, Y, and the
// constraints are the column sum and the two leading-digit conditions.
// This is the genericity the paper claims for Adaptive Search, run by
// the engine that solves its benchmarks.
func ExampleNewModel() {
	// Variables 0..7 are the letters; 8 and 9 absorb the two unused
	// digits, so the model stays a permutation of 0..9.
	const (
		S = iota
		E
		N
		D
		M
		O
		R
		Y
	)
	m := repro.NewModel(10, 0) // values are the digits 0..9
	// SEND + MORE - MONEY == 0, weighted so it dominates.
	m.AddCustom("send+more=money", []int{S, E, N, D, M, O, R, Y}, func(v []int) int {
		send := 1000*v[0] + 100*v[1] + 10*v[2] + v[3]
		more := 1000*v[4] + 100*v[5] + 10*v[6] + v[1]
		money := 10000*v[4] + 1000*v[5] + 100*v[2] + 10*v[1] + v[7]
		d := send + more - money
		if d < 0 {
			d = -d
		}
		return d
	})
	// Leading digits must not be zero; heavy weights keep the engine
	// out of degenerate regions.
	nonZero := func(v []int) int {
		if v[0] == 0 {
			return 1
		}
		return 0
	}
	m.AddWeighted("S!=0", []int{S}, 5000, nonZero)
	m.AddWeighted("M!=0", []int{M}, 5000, nonZero)
	p, err := m.Compile()
	if err != nil {
		panic(err)
	}

	opts := repro.DefaultOptions(10)
	opts.Exhaustive = true // 10 variables: the full pair scan is cheap and strong
	opts.MaxIterations = 5000
	opts.Seed = 3
	res, err := repro.Solve(context.Background(), p, opts)
	if err != nil {
		panic(err)
	}
	v := res.Solution
	fmt.Printf("solved=%v in %d iterations (%d restarts)\n", res.Solved, res.Iterations, res.Restarts)
	fmt.Printf("   %5d\n + %5d\n = %5d\n",
		1000*v[S]+100*v[E]+10*v[N]+v[D],
		1000*v[M]+100*v[O]+10*v[R]+v[E],
		10000*v[M]+1000*v[O]+100*v[N]+10*v[E]+v[Y])
	// Output:
	// solved=true in 434 iterations (0 restarts)
	//     9567
	//  +  1085
	//  = 10652
}
