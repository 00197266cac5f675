package kernelgen

import (
	"fmt"
	"math/rand"
	"sort"

	"seal/internal/patch"
)

// Config controls corpus generation. All randomness is seeded, so a config
// identifies a corpus exactly.
type Config struct {
	Seed int64
	// Instances is the number of subsystem instances per bug family.
	Instances int
	// BuggyMin/BuggyMax bound the latent (unpatched) buggy drivers per
	// instance.
	BuggyMin, BuggyMax int
	// CorrectMin/CorrectMax bound the rule-abiding drivers per instance.
	CorrectMin, CorrectMax int
	// TailEvery makes every n-th instance a "hot" interface with TailBuggy
	// latent bugs (the >5-violation tail of paper Fig. 8b).
	TailEvery int
	TailBuggy int
	// ConfuserMax bounds confuser drivers per instance (families with a
	// confuser variant only).
	ConfuserMax int
	// NoisePatches is the number of zero-relation refactor patches.
	NoisePatches int
	// AdhocInstances is the number of ad-hoc-patch subsystem instances
	// (each contributing one idiosyncratic patch whose inferred rule is
	// incorrect); AdhocPlain is the number of rule-free sibling drivers
	// the incorrect rule will flag.
	AdhocInstances int
	AdhocPlain     int
	// AdhocQuiet adds ad-hoc instances over instance-unique APIs: their
	// incorrect specs apply nowhere ("restrictive and cannot be extended",
	// paper §8.2), lowering spec precision without adding reports.
	AdhocQuiet int
	// YearNow anchors the latent-age distribution (paper Fig. 8a).
	YearNow int
}

// DefaultConfig is a small, fast corpus for tests.
func DefaultConfig() Config {
	return Config{
		Seed:      1,
		Instances: 1,
		BuggyMin:  1, BuggyMax: 2,
		CorrectMin: 1, CorrectMax: 2,
		TailEvery: 0, TailBuggy: 0,
		ConfuserMax:    1,
		NoisePatches:   2,
		AdhocInstances: 1,
		AdhocPlain:     1,
		AdhocQuiet:     1,
		YearNow:        2023,
	}
}

// EvalConfig is the full evaluation corpus (the harness's "Linux v6.2").
func EvalConfig() Config {
	return Config{
		Seed:      42,
		Instances: 3,
		BuggyMin:  1, BuggyMax: 2,
		CorrectMin: 2, CorrectMax: 4,
		TailEvery: 5, TailBuggy: 7,
		ConfuserMax:    2,
		NoisePatches:   12,
		AdhocInstances: 3,
		AdhocPlain:     3,
		AdhocQuiet:     10,
		YearNow:        2023,
	}
}

// DriverInfo is corpus metadata for one generated driver.
type DriverInfo struct {
	Name      string // unique driver prefix, e.g. "npd0_tw68"
	File      string
	Func      string // interface implementation (ground-truth location)
	Family    string
	Subsystem string
	Variant   Variant
	Year      int // year the driver (and its bug, if any) was introduced
	Patched   bool
}

// SeededBug is one latent ground-truth bug in the generated tree.
type SeededBug struct {
	Func   string
	File   string
	Kind   string
	Family string
	Iface  string
	Year   int
}

// Corpus is the generated mini-Linux: the current source tree (with latent
// bugs), the historical patch set, and exact ground truth.
type Corpus struct {
	Config  Config
	Files   map[string]string
	Patches []*patch.Patch
	Bugs    []SeededBug
	Drivers []DriverInfo
}

// namePool provides kernel-flavoured driver names.
var namePool = []string{
	"tw68", "cx88", "rtl28", "gl861", "dw2102", "ce6230", "saa7134",
	"em28xx", "ivtv", "bttv", "pvrusb2", "go7007", "stk1160", "usbtv",
	"airspy", "hackrf", "msi2500", "mxl111", "dvbsky", "az6027",
	"tegra", "meson", "stm32", "xgene", "mtk", "lpc18xx", "amd8131",
	"viacam", "netup", "spmmc",
}

// Generate builds the corpus for cfg deterministically.
func Generate(cfg Config) *Corpus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Corpus{
		Config: cfg,
		Files:  make(map[string]string),
	}
	for fi, fam := range Families {
		for k := 0; k < cfg.Instances; k++ {
			c.genInstance(rng, cfg, fam, fi, k)
		}
	}
	for k := 0; k < cfg.AdhocInstances; k++ {
		c.genAdhoc(cfg, k, true)
	}
	for k := 0; k < cfg.AdhocQuiet; k++ {
		c.genAdhoc(cfg, cfg.AdhocInstances+k, false)
	}
	for i := 0; i < cfg.NoisePatches; i++ {
		file := fmt.Sprintf("lib/noise%d.c", i)
		pre := NoiseSource(i, false)
		post := NoiseSource(i, true)
		c.Files[file] = post
		c.Patches = append(c.Patches, &patch.Patch{
			ID:          fmt.Sprintf("noise-%d", i),
			Description: "refactor: no functional change",
			Pre:         map[string]string{file: pre},
			Post:        map[string]string{file: post},
			Tags:        map[string]string{"family": "noise"},
		})
	}
	sort.Slice(c.Bugs, func(i, j int) bool { return c.Bugs[i].Func < c.Bugs[j].Func })
	return c
}

func (c *Corpus) genInstance(rng *rand.Rand, cfg Config, fam *Family, fi, k int) {
	sub := fmt.Sprintf("%s%d", fam.Name, k)
	dir := fmt.Sprintf("%s/%s", fam.Subsystem, sub)
	nameAt := func(i int) string {
		return fmt.Sprintf("%s_%s", sub, namePool[(fi*7+k*3+i)%len(namePool)])
	}
	next := 0
	newDriver := func(v Variant, patched bool) DriverInfo {
		drv := nameAt(next)
		next++
		file := fmt.Sprintf("%s/%s.c", dir, drv)
		src := fam.Render(sub, drv, v)
		c.Files[file] = src
		info := DriverInfo{
			Name: drv, File: file, Func: fam.EntryFunc(sub, drv),
			Family: fam.Name, Subsystem: fam.Subsystem, Variant: v,
			Year: bugYear(rng, cfg), Patched: patched,
		}
		c.Drivers = append(c.Drivers, info)
		return info
	}

	// One patched driver per instance: the security patch SEAL learns from.
	pd := newDriver(Correct, true) // the tree holds the fixed version
	preSrc := fam.Render(sub, pd.Name, Buggy)
	c.Patches = append(c.Patches, &patch.Patch{
		ID:          fmt.Sprintf("fix-%s-%s", fam.Name, pd.Name),
		Description: fmt.Sprintf("%s: fix %s in %s", fam.Subsystem, fam.BugKind, pd.Func),
		Pre:         map[string]string{pd.File: preSrc},
		Post:        map[string]string{pd.File: c.Files[pd.File]},
		Tags:        map[string]string{"family": fam.Name, "kind": fam.BugKind, "iface": fam.IfaceName(sub)},
	})

	// Latent buggy siblings.
	nb := cfg.BuggyMin
	if cfg.BuggyMax > cfg.BuggyMin {
		nb += rng.Intn(cfg.BuggyMax - cfg.BuggyMin + 1)
	}
	if cfg.TailEvery > 0 && (fi*cfg.Instances+k)%cfg.TailEvery == 0 {
		nb = cfg.TailBuggy
	}
	for i := 0; i < nb; i++ {
		bd := newDriver(Buggy, false)
		c.Bugs = append(c.Bugs, SeededBug{
			Func: bd.Func, File: bd.File, Kind: fam.BugKind,
			Family: fam.Name, Iface: fam.IfaceName(sub), Year: bd.Year,
		})
	}

	// Correct siblings.
	nc := cfg.CorrectMin
	if cfg.CorrectMax > cfg.CorrectMin {
		nc += rng.Intn(cfg.CorrectMax - cfg.CorrectMin + 1)
	}
	for i := 0; i < nc; i++ {
		newDriver(Correct, false)
	}

	// Confusers (controlled FP population).
	if fam.HasConfuser && cfg.ConfuserMax > 0 {
		nf := 1 + rng.Intn(cfg.ConfuserMax)
		for i := 0; i < nf; i++ {
			newDriver(Confuser, false)
		}
	}
}

// genAdhoc emits one ad-hoc subsystem instance: a patched driver whose fix
// is idiosyncratic, plus plain drivers the resulting incorrect rule flags.
func (c *Corpus) genAdhoc(cfg Config, k int, shared bool) {
	sub := fmt.Sprintf("adhoc%d", k)
	apiPrefix := "adhoc"
	if !shared {
		apiPrefix = sub
	}
	dir := fmt.Sprintf("drivers/misc/%s", sub)
	patchedDrv := fmt.Sprintf("%s_%s", sub, namePool[(k*5+1)%len(namePool)])
	file := fmt.Sprintf("%s/%s.c", dir, patchedDrv)
	pre := AdhocSource(sub, patchedDrv, apiPrefix, false, true)
	post := AdhocSource(sub, patchedDrv, apiPrefix, true, true)
	c.Files[file] = post
	c.Patches = append(c.Patches, &patch.Patch{
		ID:          fmt.Sprintf("fix-adhoc-%s", patchedDrv),
		Description: "sync hardware register state on command failure",
		Pre:         map[string]string{file: pre},
		Post:        map[string]string{file: post},
		Tags:        map[string]string{"family": "adhoc", "iface": sub + "_tops.tune"},
	})
	if !shared {
		return // quiet instance: the incorrect spec applies nowhere
	}
	for i := 0; i < cfg.AdhocPlain; i++ {
		drv := fmt.Sprintf("%s_%s", sub, namePool[(k*5+2+i)%len(namePool)])
		f := fmt.Sprintf("%s/%s.c", dir, drv)
		c.Files[f] = AdhocSource(sub, drv, apiPrefix, false, false)
		c.Drivers = append(c.Drivers, DriverInfo{
			Name: drv, File: f, Func: drv + "_tune", Family: "adhoc",
			Subsystem: "drivers/misc", Variant: Correct, Year: cfg.YearNow - 3,
		})
	}
}

// bugYear draws an introduction year reproducing the long-latency skew of
// paper Fig. 8a: ≈29% of bugs are over ten years old, mean ≈ 7.7 years.
func bugYear(rng *rand.Rand, cfg Config) int {
	if rng.Float64() < 0.29 {
		// 11..19 years old.
		return cfg.YearNow - 11 - rng.Intn(9)
	}
	// 2..10 years old.
	return cfg.YearNow - 2 - rng.Intn(9)
}

// BugByFunc indexes ground truth by function name.
func (c *Corpus) BugByFunc() map[string]SeededBug {
	m := make(map[string]SeededBug, len(c.Bugs))
	for _, b := range c.Bugs {
		m[b.Func] = b
	}
	return m
}

// DriverByFunc indexes driver metadata by entry function.
func (c *Corpus) DriverByFunc() map[string]DriverInfo {
	m := make(map[string]DriverInfo, len(c.Drivers))
	for _, d := range c.Drivers {
		m[d.Func] = d
	}
	return m
}

// SortedFileNames returns the corpus files in deterministic order.
func (c *Corpus) SortedFileNames() []string {
	names := make([]string, 0, len(c.Files))
	for n := range c.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
