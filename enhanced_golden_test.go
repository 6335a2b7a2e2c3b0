package hdr4me

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// Golden enhanced estimates: FNV-64a digests of the exact bits the
// collector-side HDR4ME paths serve — Session.EstimateEnhanced and
// EstimateEnhancedWith on the mean family under a uniform and an
// allocated budget, and the frequency family's Flat.Enhanced — for every
// registered mechanism under every enhancement configuration. Like the
// report-stream goldens, a digest is never updated to make a change pass:
// a new value means the re-calibration is no longer bitwise-preserving.

// goldenEnhanceConfigs are the collector-side configurations pinned.
var goldenEnhanceConfigs = []struct {
	name string
	cfg  EnhanceConfig
}{
	{"l1", DefaultEnhanceConfig(RegL1)},
	{"l2paper", DefaultEnhanceConfig(RegL2)},
	{"l2floor", EnhanceConfig{Reg: RegL2, Conf: 0.99, L2Floor: 0.05}},
	{"guarded-l1", EnhanceConfig{Reg: RegL1, Conf: 0.999, Guarded: true}},
	{"guarded-l2", EnhanceConfig{Reg: RegL2, Conf: 0.95, Guarded: true}},
}

// goldenAllocation is a steep non-uniform budget over d dimensions (a
// 13:1 spread) whose m largest entries spend exactly eps, so the
// per-dimension deviations straddle the guard thresholds.
func goldenAllocation(t *testing.T, eps float64, d, m int) Allocation {
	t.Helper()
	w := make([]float64, d)
	for j := range w {
		w[j] = math.Pow(1+3*float64(j%5), 3) // εⱼ ∝ wⱼ^{1/3}
	}
	a, err := OptimalMSEAllocation(eps, w, m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var goldenEnhanced = map[string]uint64{
	"mean/duchi/uniform/empty":             0xf05e74aa1eda9c25,
	"mean/duchi/uniform/session":           0x20ed547bd7e67f2d,
	"mean/duchi/uniform/l1":                0xa0faff29bac324fc,
	"mean/duchi/uniform/l2paper":           0xf05e74aa1eda9c25,
	"mean/duchi/uniform/l2floor":           0x4379762233165b12,
	"mean/duchi/uniform/guarded-l1":        0x20ed547bd7e67f2d,
	"mean/duchi/uniform/guarded-l2":        0x20ed547bd7e67f2d,
	"mean/duchi/allocated/empty":           0xf05e74aa1eda9c25,
	"mean/duchi/allocated/session":         0x65ef3626dc3cc069,
	"mean/duchi/allocated/l1":              0xb79d2267a7106f16,
	"mean/duchi/allocated/l2paper":         0xf05e74aa1eda9c25,
	"mean/duchi/allocated/l2floor":         0xad530aadb3fbdbea,
	"mean/duchi/allocated/guarded-l1":      0x571001addb299afb,
	"mean/duchi/allocated/guarded-l2":      0xf35b2d9609854e1e,
	"freq/duchi/empty":                     0x1352fb483bad5388,
	"freq/duchi/session":                   0x3e2cd476e75c3f7,
	"freq/duchi/l1":                        0x3e2cd476e75c3f7,
	"freq/duchi/l2paper":                   0xa098b2259cac6f85,
	"freq/duchi/l2floor":                   0xd90acb6c6d6da4c6,
	"freq/duchi/guarded-l1":                0xd248875eef2f79e5,
	"freq/duchi/guarded-l2":                0xd248875eef2f79e5,
	"mean/hybrid/uniform/empty":            0xf05e74aa1eda9c25,
	"mean/hybrid/uniform/session":          0x9749e79e8ddf0a06,
	"mean/hybrid/uniform/l1":               0xeaca93be1a857d66,
	"mean/hybrid/uniform/l2paper":          0xf05e74aa1eda9c25,
	"mean/hybrid/uniform/l2floor":          0xe3fce6c2dffdf450,
	"mean/hybrid/uniform/guarded-l1":       0x9749e79e8ddf0a06,
	"mean/hybrid/uniform/guarded-l2":       0x9749e79e8ddf0a06,
	"mean/hybrid/allocated/empty":          0xf05e74aa1eda9c25,
	"mean/hybrid/allocated/session":        0xeee4bcb436dd72d1,
	"mean/hybrid/allocated/l1":             0x1bac6f204a973da0,
	"mean/hybrid/allocated/l2paper":        0xf05e74aa1eda9c25,
	"mean/hybrid/allocated/l2floor":        0x3ad5a8ffad75870e,
	"mean/hybrid/allocated/guarded-l1":     0xeee4bcb436dd72d1,
	"mean/hybrid/allocated/guarded-l2":     0xdb510ebbf062f6bc,
	"freq/hybrid/empty":                    0x1352fb483bad5388,
	"freq/hybrid/session":                  0xb7862278bfe3105b,
	"freq/hybrid/l1":                       0xb7862278bfe3105b,
	"freq/hybrid/l2paper":                  0xa098b2259cac6f85,
	"freq/hybrid/l2floor":                  0x38c3702d8bf03eb,
	"freq/hybrid/guarded-l1":               0xd12bff01a4b772e3,
	"freq/hybrid/guarded-l2":               0xd12bff01a4b772e3,
	"mean/laplace/uniform/empty":           0xf05e74aa1eda9c25,
	"mean/laplace/uniform/session":         0x7465770a35f2f5c2,
	"mean/laplace/uniform/l1":              0x8f1a757980e9da31,
	"mean/laplace/uniform/l2paper":         0xf05e74aa1eda9c25,
	"mean/laplace/uniform/l2floor":         0xd0de7aedc1e43392,
	"mean/laplace/uniform/guarded-l1":      0x7465770a35f2f5c2,
	"mean/laplace/uniform/guarded-l2":      0x7465770a35f2f5c2,
	"mean/laplace/allocated/empty":         0xf05e74aa1eda9c25,
	"mean/laplace/allocated/session":       0xf0d100498d237d8a,
	"mean/laplace/allocated/l1":            0x9b9f95aa6ffecb47,
	"mean/laplace/allocated/l2paper":       0xf05e74aa1eda9c25,
	"mean/laplace/allocated/l2floor":       0xb9619803c58bcf6e,
	"mean/laplace/allocated/guarded-l1":    0x8084946a21015e4,
	"mean/laplace/allocated/guarded-l2":    0x9adaea0de2399d51,
	"freq/laplace/empty":                   0x1352fb483bad5388,
	"freq/laplace/session":                 0x416c13d691adb114,
	"freq/laplace/l1":                      0x416c13d691adb114,
	"freq/laplace/l2paper":                 0xa098b2259cac6f85,
	"freq/laplace/l2floor":                 0x1d1ff6ddcf9ede9b,
	"freq/laplace/guarded-l1":              0xf95239cfa7494e33,
	"freq/laplace/guarded-l2":              0xf95239cfa7494e33,
	"mean/piecewise/uniform/empty":         0xf05e74aa1eda9c25,
	"mean/piecewise/uniform/session":       0x2fe61b2226063a72,
	"mean/piecewise/uniform/l1":            0x8720f2fcfd84e161,
	"mean/piecewise/uniform/l2paper":       0xf05e74aa1eda9c25,
	"mean/piecewise/uniform/l2floor":       0x7311bd34528ae14d,
	"mean/piecewise/uniform/guarded-l1":    0x2fe61b2226063a72,
	"mean/piecewise/uniform/guarded-l2":    0x2fe61b2226063a72,
	"mean/piecewise/allocated/empty":       0xf05e74aa1eda9c25,
	"mean/piecewise/allocated/session":     0x52148dc800cb432b,
	"mean/piecewise/allocated/l1":          0xc65d66d6a00a1588,
	"mean/piecewise/allocated/l2paper":     0xf05e74aa1eda9c25,
	"mean/piecewise/allocated/l2floor":     0x948bae1ff903fab,
	"mean/piecewise/allocated/guarded-l1":  0x52148dc800cb432b,
	"mean/piecewise/allocated/guarded-l2":  0xb9b27d91a1ed46ed,
	"freq/piecewise/empty":                 0x1352fb483bad5388,
	"freq/piecewise/session":               0xeb93b122c848b006,
	"freq/piecewise/l1":                    0xeb93b122c848b006,
	"freq/piecewise/l2paper":               0xa098b2259cac6f85,
	"freq/piecewise/l2floor":               0x7070fe84331d33ef,
	"freq/piecewise/guarded-l1":            0x314aa3ca75a7c3ea,
	"freq/piecewise/guarded-l2":            0x314aa3ca75a7c3ea,
	"mean/scdf/uniform/empty":              0xf05e74aa1eda9c25,
	"mean/scdf/uniform/session":            0xad73525b2210e2df,
	"mean/scdf/uniform/l1":                 0x73d53277055fb02c,
	"mean/scdf/uniform/l2paper":            0xf05e74aa1eda9c25,
	"mean/scdf/uniform/l2floor":            0xba97fda26bdfa922,
	"mean/scdf/uniform/guarded-l1":         0xad73525b2210e2df,
	"mean/scdf/uniform/guarded-l2":         0xad73525b2210e2df,
	"mean/scdf/allocated/empty":            0xf05e74aa1eda9c25,
	"mean/scdf/allocated/session":          0x946fdab7dc5bec19,
	"mean/scdf/allocated/l1":               0x17d33529a450fcb8,
	"mean/scdf/allocated/l2paper":          0xf05e74aa1eda9c25,
	"mean/scdf/allocated/l2floor":          0x63cec5676ec82fbb,
	"mean/scdf/allocated/guarded-l1":       0xd69c74c954a68087,
	"mean/scdf/allocated/guarded-l2":       0xd479e6d554f3824b,
	"freq/scdf/empty":                      0x1352fb483bad5388,
	"freq/scdf/session":                    0xc0fc101de27d7823,
	"freq/scdf/l1":                         0xc0fc101de27d7823,
	"freq/scdf/l2paper":                    0xa098b2259cac6f85,
	"freq/scdf/l2floor":                    0x9d275ffa57c59498,
	"freq/scdf/guarded-l1":                 0xf26acee396eef918,
	"freq/scdf/guarded-l2":                 0xf26acee396eef918,
	"mean/squarewave/uniform/empty":        0xf05e74aa1eda9c25,
	"mean/squarewave/uniform/session":      0xd3d93095b0cac96d,
	"mean/squarewave/uniform/l1":           0x626c57540eef6ac1,
	"mean/squarewave/uniform/l2paper":      0xc784e97f27eee69b,
	"mean/squarewave/uniform/l2floor":      0x61ee2a401cde8e1b,
	"mean/squarewave/uniform/guarded-l1":   0xd3d93095b0cac96d,
	"mean/squarewave/uniform/guarded-l2":   0xd3d93095b0cac96d,
	"mean/squarewave/allocated/empty":      0xf05e74aa1eda9c25,
	"mean/squarewave/allocated/session":    0xa64ce2a2ee80b683,
	"mean/squarewave/allocated/l1":         0xdfefe85f30eb45b9,
	"mean/squarewave/allocated/l2paper":    0x65a0a9e38200d4a6,
	"mean/squarewave/allocated/l2floor":    0xebc631674083cb58,
	"mean/squarewave/allocated/guarded-l1": 0xa64ce2a2ee80b683,
	"mean/squarewave/allocated/guarded-l2": 0xa64ce2a2ee80b683,
	"freq/squarewave/empty":                0x1352fb483bad5388,
	"freq/squarewave/session":              0xd122eaa55caaf554,
	"freq/squarewave/l1":                   0xd122eaa55caaf554,
	"freq/squarewave/l2paper":              0x70845d30d6ba08ae,
	"freq/squarewave/l2floor":              0xbda29379dcc4e7b6,
	"freq/squarewave/guarded-l1":           0x3987efd80b537f9a,
	"freq/squarewave/guarded-l2":           0x3987efd80b537f9a,
	"mean/staircase/uniform/empty":         0xf05e74aa1eda9c25,
	"mean/staircase/uniform/session":       0xfced2e03897ee074,
	"mean/staircase/uniform/l1":            0xde5aeb6805c3f3b5,
	"mean/staircase/uniform/l2paper":       0xf05e74aa1eda9c25,
	"mean/staircase/uniform/l2floor":       0x7feb3e4527e702f4,
	"mean/staircase/uniform/guarded-l1":    0xfced2e03897ee074,
	"mean/staircase/uniform/guarded-l2":    0xfced2e03897ee074,
	"mean/staircase/allocated/empty":       0xf05e74aa1eda9c25,
	"mean/staircase/allocated/session":     0xa1d229671c36497a,
	"mean/staircase/allocated/l1":          0x70b76f059ec29d02,
	"mean/staircase/allocated/l2paper":     0xf05e74aa1eda9c25,
	"mean/staircase/allocated/l2floor":     0xcf56f5a724d30c7c,
	"mean/staircase/allocated/guarded-l1":  0x1da22b5d7ed9e2fd,
	"mean/staircase/allocated/guarded-l2":  0x89ebbca7116b3010,
	"freq/staircase/empty":                 0x1352fb483bad5388,
	"freq/staircase/session":               0x278b19102d465311,
	"freq/staircase/l1":                    0x278b19102d465311,
	"freq/staircase/l2paper":               0xa098b2259cac6f85,
	"freq/staircase/l2floor":               0x8a448c7cbf8236ef,
	"freq/staircase/guarded-l1":            0xb8fb1c4e8c35c7fc,
	"freq/staircase/guarded-l2":            0xb8fb1c4e8c35c7fc,
}

// enhancedTuple fills user u's tuple around a per-dimension mean of
// 0.7·cos(0.37j), so the true means spread across [−0.7, 0.7] and the
// re-calibration has something other than zeros to act on.
func enhancedTuple(u, d int) Tuple {
	vals := make([]float64, d)
	for j := range vals {
		vals[j] = 0.7*math.Cos(0.37*float64(j)) + 0.3*math.Sin(float64(u*131+j*17+1))
	}
	return Tuple{Values: vals}
}

// digestEnhanced hashes the served enhanced estimate, or a marker for a
// refusal, so error paths are pinned too.
func digestEnhanced(xs []float64, err error) uint64 {
	if err != nil {
		h := fnv.New64a()
		h.Write([]byte(err.Error()))
		return h.Sum64()
	}
	return digestFloats(xs)
}

func TestGoldenEnhancedEstimates(t *testing.T) {
	check := func(key string, got uint64) {
		t.Helper()
		if want, ok := goldenEnhanced[key]; !ok || got != want {
			t.Errorf("%q: %#x, want %#x", key, got, want)
		}
	}
	const d, m, eps, users = 40, 4, 4.0, 2000
	// The digests pin both branches of the guard only if, under the
	// allocated budget, each guarded configuration re-calibrates some
	// dimensions and leaves others bit-for-bit naive.
	kept, moved := map[string]bool{}, map[string]bool{}
	for _, name := range MechanismNames() {
		mech, err := MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []string{"uniform", "allocated"} {
			opts := []Option{
				WithMechanism(mech), WithBudget(eps), WithDims(d, m), WithSeed(29),
				WithEnhance(EnhanceConfig{Reg: RegL1, Conf: 0.99, Guarded: true}),
			}
			if budget == "allocated" {
				opts = append(opts, WithAllocation(goldenAllocation(t, eps, d, m)))
			}
			s, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Before any report every count is zero and the framework
			// falls back to r = 1.
			key := fmt.Sprintf("mean/%s/%s", name, budget)
			check(key+"/empty", digestEnhanced(s.EstimateEnhanced()))
			for u := 0; u < users; u++ {
				if err := s.Observe(enhancedTuple(u, d)); err != nil {
					t.Fatal(err)
				}
			}
			check(key+"/session", digestEnhanced(s.EstimateEnhanced()))
			naive := s.Estimate()
			for _, c := range goldenEnhanceConfigs {
				enh, err := s.EstimateEnhancedWith(c.cfg)
				check(key+"/"+c.name, digestEnhanced(enh, err))
				if budget != "allocated" || !c.cfg.Guarded {
					continue
				}
				for j := range enh {
					if math.Float64bits(enh[j]) == math.Float64bits(naive[j]) {
						kept[c.name] = true
					} else {
						moved[c.name] = true
					}
				}
			}
		}

		cards := []int{3, 5, 2, 4, 6, 3}
		fs, err := New(WithMechanism(mech), WithBudget(2.0), WithCards(cards), WithDims(len(cards), 2),
			WithSeed(31), WithEnhance(DefaultEnhanceConfig(RegL1)))
		if err != nil {
			t.Fatal(err)
		}
		key := "freq/" + name
		check(key+"/empty", digestEnhanced(fs.EstimateEnhanced()))
		for u := 0; u < users; u++ {
			cats := make([]int, len(cards))
			for j := range cats {
				cats[j] = (u*7 + j*3 + u/11) % cards[j]
			}
			if err := fs.Observe(Tuple{Cats: cats}); err != nil {
				t.Fatal(err)
			}
		}
		check(key+"/session", digestEnhanced(fs.EstimateEnhanced()))
		for _, c := range goldenEnhanceConfigs {
			check(key+"/"+c.name, digestEnhanced(fs.EstimateEnhancedWith(c.cfg)))
		}
	}
	for _, c := range goldenEnhanceConfigs {
		if c.cfg.Guarded && (!kept[c.name] || !moved[c.name]) {
			t.Errorf("%s: guard kept some dims = %v, moved some dims = %v; want both", c.name, kept[c.name], moved[c.name])
		}
	}
}
