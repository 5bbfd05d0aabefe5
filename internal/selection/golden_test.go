package selection

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/worker"
)

// goldenPool draws a pool the way jurybench's generator does: the worker
// of quality rank i has quality in the i-th of n equal strata of
// [0.55, 0.95) and costs 1 + 2i mod 5, and the registration order is a
// random permutation.
func goldenPool(n int, seed int64) worker.Pool {
	rng := rand.New(rand.NewSource(seed))
	pool := make(worker.Pool, n)
	for i, slot := range rng.Perm(n) {
		pool[slot] = worker.Worker{
			Quality: 0.55 + 0.4*(float64(i)+rng.Float64())/float64(n),
			Cost:    float64(1 + 2*i%5),
		}
	}
	return pool
}

// goldenJury is one recorded OPTJS(seed).Select(goldenPool(n, seed),
// budget, alpha).
type goldenJury struct {
	n       int
	seed    int64
	alpha   float64
	budget  float64
	indices []int
	jqBits  uint64
	cost    float64
	evals   int
}

// The golden OPTJS juries pin what a select serves: the jury, its JQ to
// the bit, its cost and the number of objective evaluations, over pool
// sizes 32, 128 and 500, seeds 1–3, priors 0.3, 0.5 and 0.7 and budgets
// 5, 10, 15 and 20. The N = 32 rows were recorded on the dense bucket DP
// that the sparse-key core replaced; they pin the removal-search tier.
// The N = 128 and N = 500 rows pin the single-pass tier above
// RemovalSearchMaxN and were recorded when those sizes moved to it. An
// engine or search change that moves a single accepted annealing move
// fails here.
func TestOPTJSGoldenJuries(t *testing.T) {
	for _, g := range goldenJuries {
		res, err := OPTJS(g.seed).Select(goldenPool(g.n, g.seed), g.budget, g.alpha)
		if err != nil {
			t.Fatalf("n=%d seed=%d alpha=%v budget=%v: %v", g.n, g.seed, g.alpha, g.budget, err)
		}
		if !slices.Equal(res.Indices, g.indices) || math.Float64bits(res.JQ) != g.jqBits ||
			res.Cost != g.cost || res.Evaluations != g.evals {
			t.Errorf("n=%d seed=%d alpha=%v budget=%v:\n got %v JQ %#x cost %v evals %d\nwant %v JQ %#x cost %v evals %d",
				g.n, g.seed, g.alpha, g.budget,
				res.Indices, math.Float64bits(res.JQ), res.Cost, res.Evaluations,
				g.indices, g.jqBits, g.cost, g.evals)
		}
	}
}

// goldenJuries, in the order n, seed, alpha, budget.
var goldenJuries = []goldenJury{
	{32, 1, 0.3, 5, []int{8, 11, 12}, 0x3fef6dd9f12ad7ef, 5, 1730},
	{32, 1, 0.3, 10, []int{8, 11, 12, 15, 22, 27}, 0x3fefd11b419482c7, 10, 1730},
	{32, 1, 0.3, 15, []int{8, 11, 12, 15, 22, 27, 29, 30}, 0x3fefec13041da877, 15, 1730},
	{32, 1, 0.3, 20, []int{1, 8, 11, 12, 15, 17, 22, 23, 27, 30}, 0x3feff52bef6781b9, 20, 1730},
	{32, 1, 0.5, 5, []int{8, 11, 12}, 0x3fef6dd9f12ad7ef, 5, 1730},
	{32, 1, 0.5, 10, []int{1, 8, 11, 12, 22}, 0x3fefcd420a4cce34, 10, 1730},
	{32, 1, 0.5, 15, []int{1, 8, 11, 12, 15, 22, 23, 27, 29}, 0x3fefe6ab52a761bf, 15, 1730},
	{32, 1, 0.5, 20, []int{1, 8, 11, 12, 15, 17, 22, 27, 29, 30}, 0x3feff4d57feeda8c, 20, 1730},
	{32, 1, 0.7, 5, []int{8, 11, 12}, 0x3fef6dd9f12ad7ef, 5, 1730},
	{32, 1, 0.7, 10, []int{8, 11, 12, 15, 22, 27}, 0x3fefd11b419482c7, 10, 1730},
	{32, 1, 0.7, 15, []int{8, 11, 12, 15, 22, 27, 29, 30}, 0x3fefec13041da877, 15, 1730},
	{32, 1, 0.7, 20, []int{1, 8, 11, 12, 15, 17, 22, 23, 27, 30}, 0x3feff52bef6781b9, 20, 1730},
	{32, 2, 0.3, 5, []int{5, 21, 23}, 0x3fef5dc82e8ebdeb, 5, 1730},
	{32, 2, 0.3, 10, []int{5, 6, 9, 11, 21, 23}, 0x3fefca6a0d7c2cf9, 10, 1730},
	{32, 2, 0.3, 15, []int{5, 6, 9, 11, 14, 21, 23, 24}, 0x3fefe9bd2e414c8b, 15, 1730},
	{32, 2, 0.3, 20, []int{5, 6, 9, 11, 14, 21, 23, 24, 25, 30}, 0x3feff4c0c4500a38, 20, 1730},
	{32, 2, 0.5, 5, []int{5, 21, 23}, 0x3fef5dc82e8ebdeb, 5, 1730},
	{32, 2, 0.5, 10, []int{5, 11, 21, 23, 25}, 0x3fefc87e820e129a, 10, 1730},
	{32, 2, 0.5, 15, []int{5, 6, 9, 11, 14, 21, 23, 24}, 0x3fefe76bc3417ae2, 15, 1730},
	{32, 2, 0.5, 20, []int{5, 6, 9, 11, 14, 21, 23, 24, 25, 30}, 0x3feff3a0a4c5a8b7, 20, 1730},
	{32, 2, 0.7, 5, []int{5, 21, 23}, 0x3fef5dc82e8ebdeb, 5, 1730},
	{32, 2, 0.7, 10, []int{5, 6, 9, 11, 21, 23}, 0x3fefca6a0d7c2cf9, 10, 1730},
	{32, 2, 0.7, 15, []int{5, 6, 9, 11, 14, 21, 23, 24}, 0x3fefe9bd2e414c8b, 15, 1730},
	{32, 2, 0.7, 20, []int{5, 6, 9, 11, 14, 21, 23, 24, 25, 30}, 0x3feff4c0c4500a38, 20, 1730},
	{32, 3, 0.3, 5, []int{0, 24, 25, 28}, 0x3fef47953ca8dc95, 5, 1730},
	{32, 3, 0.3, 10, []int{0, 9, 24, 25, 28, 31}, 0x3fefcbd1548911be, 10, 1730},
	{32, 3, 0.3, 15, []int{0, 3, 9, 24, 25, 27, 28, 31}, 0x3fefe688d8c247b4, 15, 1730},
	{32, 3, 0.3, 20, []int{0, 9, 14, 23, 24, 25, 28, 29, 31}, 0x3feff1ab5c068df3, 20, 1730},
	{32, 3, 0.5, 5, []int{24, 25, 31}, 0x3fef5bb5cada1ce5, 5, 1730},
	{32, 3, 0.5, 10, []int{0, 9, 24, 25, 28, 31}, 0x3fefc6a758980b59, 10, 1730},
	{32, 3, 0.5, 15, []int{0, 6, 9, 23, 24, 25, 28, 31}, 0x3fefe6e685362cf4, 15, 1730},
	{32, 3, 0.5, 20, []int{0, 3, 6, 9, 23, 24, 25, 27, 28, 31}, 0x3feff3730d0d7e39, 20, 1730},
	{32, 3, 0.7, 5, []int{0, 24, 25, 28}, 0x3fef47953ca8dc95, 5, 1730},
	{32, 3, 0.7, 10, []int{0, 9, 24, 25, 28, 31}, 0x3fefcbd1548911be, 10, 1730},
	{32, 3, 0.7, 15, []int{0, 3, 9, 24, 25, 27, 28, 31}, 0x3fefe688d8c247b4, 15, 1730},
	{32, 3, 0.7, 20, []int{0, 9, 14, 23, 24, 25, 28, 29, 31}, 0x3feff1ab5c068df3, 20, 1730},
	{128, 1, 0.3, 5, []int{7, 37, 90, 105, 111}, 0x3fefd04c1bca15da, 5, 614},
	{128, 1, 0.3, 10, []int{0, 7, 15, 19, 37, 78, 90, 105, 111, 115}, 0x3feff59bd0dd2855, 10, 499},
	{128, 1, 0.3, 15, []int{0, 7, 15, 19, 22, 37, 58, 62, 72, 78, 86, 90, 105, 111, 115}, 0x3feffb4399e4100f, 15, 368},
	{128, 1, 0.3, 20, []int{0, 7, 8, 15, 19, 22, 37, 52, 54, 55, 58, 60, 62, 72, 78, 86, 90, 105, 111, 115}, 0x3feffcc083225527, 20, 332},
	{128, 1, 0.5, 5, []int{7, 37, 90, 105, 111}, 0x3fefd04c1bca15da, 5, 613},
	{128, 1, 0.5, 10, []int{7, 15, 19, 37, 72, 78, 90, 105, 111, 115}, 0x3feff442fe72bab0, 10, 501},
	{128, 1, 0.5, 15, []int{0, 7, 15, 19, 22, 37, 58, 60, 62, 72, 78, 90, 105, 111, 115}, 0x3feffafb1d107942, 15, 374},
	{128, 1, 0.5, 20, []int{0, 7, 8, 15, 19, 22, 37, 52, 58, 59, 60, 62, 72, 78, 79, 86, 90, 105, 111, 115}, 0x3feffc5c02735c9f, 20, 321},
	{128, 1, 0.7, 5, []int{7, 37, 90, 105, 111}, 0x3fefd04c1bca15da, 5, 614},
	{128, 1, 0.7, 10, []int{0, 7, 15, 19, 37, 78, 90, 105, 111, 115}, 0x3feff59bd0dd2855, 10, 499},
	{128, 1, 0.7, 15, []int{0, 7, 15, 19, 22, 37, 58, 62, 72, 78, 86, 90, 105, 111, 115}, 0x3feffb4399e4100f, 15, 368},
	{128, 1, 0.7, 20, []int{0, 7, 8, 15, 19, 22, 37, 52, 54, 55, 58, 60, 62, 72, 78, 86, 90, 105, 111, 115}, 0x3feffcc083225527, 20, 332},
	{128, 2, 0.3, 5, []int{8, 86, 92, 113, 121}, 0x3fefd02cbb15c739, 5, 602},
	{128, 2, 0.3, 10, []int{2, 8, 34, 59, 65, 78, 86, 92, 113, 121}, 0x3feff5622a132458, 10, 508},
	{128, 2, 0.3, 15, []int{2, 8, 29, 34, 42, 59, 65, 78, 86, 87, 92, 113, 119, 121, 123}, 0x3feffb505b25c0dc, 15, 361},
	{128, 2, 0.3, 20, []int{2, 8, 29, 34, 44, 52, 59, 65, 68, 75, 78, 86, 87, 92, 113, 119, 121, 123}, 0x3feffeead73374c4, 20, 444},
	{128, 2, 0.5, 5, []int{8, 86, 92, 113, 121}, 0x3fefd02cbb15c739, 5, 618},
	{128, 2, 0.5, 10, []int{2, 8, 34, 59, 65, 78, 86, 92, 113, 121}, 0x3feff44b3a915eed, 10, 508},
	{128, 2, 0.5, 15, []int{2, 8, 29, 34, 42, 59, 65, 78, 86, 87, 92, 113, 119, 121, 123}, 0x3feffada71a4a068, 15, 366},
	{128, 2, 0.5, 20, []int{2, 8, 28, 29, 34, 44, 59, 65, 75, 78, 86, 87, 92, 104, 113, 119, 121, 123}, 0x3feffee5dc2dd602, 20, 456},
	{128, 2, 0.7, 5, []int{8, 86, 92, 113, 121}, 0x3fefd02cbb15c739, 5, 602},
	{128, 2, 0.7, 10, []int{2, 8, 34, 59, 65, 78, 86, 92, 113, 121}, 0x3feff5622a132458, 10, 508},
	{128, 2, 0.7, 15, []int{2, 8, 29, 34, 42, 59, 65, 78, 86, 87, 92, 113, 119, 121, 123}, 0x3feffb505b25c0dc, 15, 361},
	{128, 2, 0.7, 20, []int{2, 8, 29, 34, 44, 52, 59, 65, 68, 75, 78, 86, 87, 92, 113, 119, 121, 123}, 0x3feffeead73374c4, 20, 444},
	{128, 3, 0.3, 5, []int{9, 42, 44, 65, 109}, 0x3fefcf2b7f5900b4, 5, 656},
	{128, 3, 0.3, 10, []int{2, 8, 9, 42, 44, 65, 67, 70, 109, 112}, 0x3feff57b170588e1, 10, 537},
	{128, 3, 0.3, 15, []int{2, 8, 9, 23, 25, 42, 44, 53, 65, 67, 70, 83, 109, 112, 115}, 0x3feffb45592d7250, 15, 419},
	{128, 3, 0.3, 20, []int{0, 2, 7, 9, 25, 29, 42, 44, 63, 65, 67, 70, 86, 93, 101, 109, 112, 115, 122}, 0x3feffcdddad2a80d, 20, 323},
	{128, 3, 0.5, 5, []int{9, 42, 44, 65, 109}, 0x3fefcf2b7f5900b4, 5, 652},
	{128, 3, 0.5, 10, []int{2, 8, 9, 42, 44, 65, 67, 70, 109, 112}, 0x3feff45ea47d9495, 10, 515},
	{128, 3, 0.5, 15, []int{2, 8, 9, 23, 25, 42, 44, 53, 65, 67, 70, 83, 109, 112, 115}, 0x3feffacf53f1826f, 15, 431},
	{128, 3, 0.5, 20, []int{2, 8, 9, 23, 25, 29, 42, 44, 53, 63, 65, 67, 70, 83, 86, 109, 112, 115, 121}, 0x3feffe27f73d8901, 20, 381},
	{128, 3, 0.7, 5, []int{9, 42, 44, 65, 109}, 0x3fefcf2b7f5900b4, 5, 656},
	{128, 3, 0.7, 10, []int{2, 8, 9, 42, 44, 65, 67, 70, 109, 112}, 0x3feff57b170588e1, 10, 537},
	{128, 3, 0.7, 15, []int{2, 8, 9, 23, 25, 42, 44, 53, 65, 67, 70, 83, 109, 112, 115}, 0x3feffb45592d7250, 15, 419},
	{128, 3, 0.7, 20, []int{0, 2, 7, 9, 25, 29, 42, 44, 63, 65, 67, 70, 86, 93, 101, 109, 112, 115, 122}, 0x3feffcdddad2a80d, 20, 323},
	{500, 1, 0.3, 5, []int{76, 133, 137, 217, 230}, 0x3fefeebcc198fa9d, 5, 2718},
	{500, 1, 0.3, 10, []int{76, 133, 137, 217, 230, 258, 291, 298, 373, 438}, 0x3fefff0b120e3c4f, 10, 2552},
	{500, 1, 0.3, 15, []int{76, 83, 133, 137, 169, 204, 217, 219, 230, 258, 291, 298, 373, 401, 438}, 0x3fefffef7bad0b0c, 15, 2505},
	{500, 1, 0.3, 20, []int{21, 53, 68, 76, 83, 99, 133, 137, 201, 204, 217, 219, 230, 258, 291, 298, 373, 398, 401, 438}, 0x3feffffdfb493117, 20, 2377},
	{500, 1, 0.5, 5, []int{76, 133, 137, 217, 230}, 0x3fefeebcc198fa9d, 5, 2724},
	{500, 1, 0.5, 10, []int{76, 133, 137, 217, 230, 258, 291, 298, 373, 438}, 0x3feffecf3eb93343, 10, 2572},
	{500, 1, 0.5, 15, []int{21, 68, 76, 99, 133, 137, 169, 217, 219, 230, 258, 291, 298, 373, 438}, 0x3fefffee3d93d64e, 15, 2495},
	{500, 1, 0.5, 20, []int{21, 68, 76, 99, 133, 137, 169, 201, 204, 217, 219, 230, 231, 258, 291, 298, 373, 399, 401, 438}, 0x3feffffdc7458685, 20, 2349},
	{500, 1, 0.7, 5, []int{76, 133, 137, 217, 230}, 0x3fefeebcc198fa9d, 5, 2718},
	{500, 1, 0.7, 10, []int{76, 133, 137, 217, 230, 258, 291, 298, 373, 438}, 0x3fefff0b120e3c4f, 10, 2552},
	{500, 1, 0.7, 15, []int{76, 83, 133, 137, 169, 204, 217, 219, 230, 258, 291, 298, 373, 401, 438}, 0x3fefffef7bad0b0c, 15, 2505},
	{500, 1, 0.7, 20, []int{21, 53, 68, 76, 83, 99, 133, 137, 201, 204, 217, 219, 230, 258, 291, 298, 373, 398, 401, 438}, 0x3feffffdfb493117, 20, 2377},
	{500, 2, 0.3, 5, []int{33, 79, 130, 230, 282}, 0x3fefeea09309e012, 5, 2600},
	{500, 2, 0.3, 10, []int{33, 46, 79, 130, 230, 231, 266, 282, 379, 497}, 0x3fefff1009ce64c9, 10, 2501},
	{500, 2, 0.3, 15, []int{33, 46, 79, 130, 230, 231, 254, 266, 282, 292, 315, 324, 379, 466, 497}, 0x3feffff15015ced8, 15, 2377},
	{500, 2, 0.3, 20, []int{2, 24, 33, 37, 79, 130, 163, 230, 231, 254, 266, 282, 292, 315, 324, 336, 379, 393, 466, 497}, 0x3feffffdd163f57a, 20, 2306},
	{500, 2, 0.5, 5, []int{33, 79, 130, 230, 282}, 0x3fefeea09309e012, 5, 2590},
	{500, 2, 0.5, 10, []int{33, 46, 79, 130, 230, 231, 266, 282, 379, 497}, 0x3feffed2317013e2, 10, 2498},
	{500, 2, 0.5, 15, []int{33, 37, 46, 79, 130, 230, 231, 254, 266, 282, 292, 315, 324, 379, 497}, 0x3feffff18d6eb690, 15, 2410},
	{500, 2, 0.5, 20, []int{2, 24, 33, 37, 46, 79, 130, 192, 230, 231, 260, 266, 282, 292, 315, 324, 335, 379, 393, 466}, 0x3feffffcfe0b3db7, 20, 2286},
	{500, 2, 0.7, 5, []int{33, 79, 130, 230, 282}, 0x3fefeea09309e012, 5, 2600},
	{500, 2, 0.7, 10, []int{33, 46, 79, 130, 230, 231, 266, 282, 379, 497}, 0x3fefff1009ce64c9, 10, 2501},
	{500, 2, 0.7, 15, []int{33, 46, 79, 130, 230, 231, 254, 266, 282, 292, 315, 324, 379, 466, 497}, 0x3feffff15015ced8, 15, 2377},
	{500, 2, 0.7, 20, []int{2, 24, 33, 37, 79, 130, 163, 230, 231, 254, 266, 282, 292, 315, 324, 336, 379, 393, 466, 497}, 0x3feffffdd163f57a, 20, 2306},
	{500, 3, 0.3, 5, []int{119, 164, 251, 457, 489}, 0x3fefee7fed3cdf27, 5, 2549},
	{500, 3, 0.3, 10, []int{119, 132, 164, 251, 339, 364, 370, 456, 457, 489}, 0x3fefff07fcf97aa4, 10, 2457},
	{500, 3, 0.3, 15, []int{28, 119, 132, 164, 208, 251, 339, 357, 364, 370, 373, 456, 457, 482, 489}, 0x3feffff1169f9d0e, 15, 2405},
	{500, 3, 0.3, 20, []int{8, 28, 119, 125, 132, 160, 162, 164, 251, 339, 357, 364, 370, 373, 437, 438, 456, 457, 482, 489}, 0x3feffffe10f19e02, 20, 2204},
	{500, 3, 0.5, 5, []int{119, 164, 251, 457, 489}, 0x3fefee7fed3cdf27, 5, 2567},
	{500, 3, 0.5, 10, []int{119, 132, 164, 251, 339, 364, 370, 456, 457, 489}, 0x3feffecb27e4f657, 10, 2436},
	{500, 3, 0.5, 15, []int{28, 119, 132, 164, 208, 251, 339, 357, 364, 370, 373, 456, 457, 482, 489}, 0x3feffff0be5b033d, 15, 2380},
	{500, 3, 0.5, 20, []int{28, 119, 132, 164, 208, 251, 274, 339, 346, 357, 364, 370, 373, 437, 438, 456, 457, 482, 489, 491}, 0x3feffffd392f64ab, 20, 2270},
	{500, 3, 0.7, 5, []int{119, 164, 251, 457, 489}, 0x3fefee7fed3cdf27, 5, 2549},
	{500, 3, 0.7, 10, []int{119, 132, 164, 251, 339, 364, 370, 456, 457, 489}, 0x3fefff07fcf97aa4, 10, 2457},
	{500, 3, 0.7, 15, []int{28, 119, 132, 164, 208, 251, 339, 357, 364, 370, 373, 456, 457, 482, 489}, 0x3feffff1169f9d0e, 15, 2405},
	{500, 3, 0.7, 20, []int{8, 28, 119, 125, 132, 160, 162, 164, 251, 339, 357, 364, 370, 373, 437, 438, 456, 457, 482, 489}, 0x3feffffe10f19e02, 20, 2204},
}

// TestOPTJSSearchTiers pins where the served searches change tier and
// keeps the cut honest. OPTJS runs the two-restart removal search at
// RemovalSearchMaxN and the paper's plain single pass one worker above
// it, and above the cut that single pass must match the removal search's
// mean JQ on jurybench-style pools. MVJS runs the removal search on both
// sides of the cut: under the majority objective that search keeps the
// higher mean JQ up to N = 128 (DESIGN.md "Selection").
func TestOPTJSSearchTiers(t *testing.T) {
	same := func(a, b Result) bool {
		return slices.Equal(a.Indices, b.Indices) && math.Float64bits(a.JQ) == math.Float64bits(b.JQ) &&
			a.Cost == b.Cost && a.Evaluations == b.Evaluations
	}
	removal := func(obj Objective, seed int64) Annealing {
		return Annealing{Objective: obj, Seed: seed, Restarts: 2, AllowRemoval: true}
	}
	plain := func(obj Objective, seed int64) Annealing { return Annealing{Objective: obj, Seed: seed} }
	for _, sys := range []struct {
		name     string
		serve    func(int64) Selector
		obj      Objective
		aboveCut func(Objective, int64) Annealing
	}{{"OPTJS", OPTJS, BVObjective{}, plain}, {"MVJS", MVJS, MVObjective{}, removal}} {
		for _, tier := range []struct {
			n      int
			search func(Objective, int64) Annealing
		}{{RemovalSearchMaxN, removal}, {RemovalSearchMaxN + 1, sys.aboveCut}} {
			for seed := int64(1); seed <= 3; seed++ {
				pool := goldenPool(tier.n, seed)
				got, err := sys.serve(seed).Select(pool, 10, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				want, err := tier.search(sys.obj, seed).Select(pool, 10, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				if !same(got, want) {
					t.Errorf("%s n=%d seed=%d: served %v JQ %v evals %d, want %v JQ %v evals %d",
						sys.name, tier.n, seed, got.Indices, got.JQ, got.Evaluations,
						want.Indices, want.JQ, want.Evaluations)
				}
			}
		}
	}
	for _, n := range []int{96, 128, 256} {
		var served, removed float64
		for seed := int64(1); seed <= 3; seed++ {
			pool := goldenPool(n, seed)
			for _, budget := range []float64{5, 10, 20, 40} {
				got, err := OPTJS(seed).Select(pool, budget, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := removal(BVObjective{}, seed).Select(pool, budget, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				served += got.JQ
				removed += ref.JQ
			}
		}
		if served < removed {
			t.Errorf("OPTJS n=%d: served mean JQ %v below the removal search's %v", n, served/12, removed/12)
		}
	}
}
