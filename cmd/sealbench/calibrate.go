package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"strings"
	"time"
)

// The benchmark box is shared: over minutes its speed drifts by a third
// and more, moving every wall time with it, seal's or not. So every timed
// op is paired with a calibration task timed right after it, and the
// end-to-end timings are reported at reference speed: wall × calRefMS /
// calibration. The calibration is fixed code over fixed input (go/parser
// on a generated Go file, stdlib only), so no change to seal moves it,
// while it slows down with the box much as seal's parse-and-analyse work
// does. Raw wall times stay in the per-layer table.

// calRefMS is the calibration's median time on the reference box (2 vCPU,
// Go 1.24, linux/amd64). It only sets the scale: reference-speed times
// read as milliseconds on that box.
const calRefMS = 22.0

// calibrationSource is a generated 80 KB Go file: types, methods, loops,
// branches and calls, allocation-heavy to parse, like seal's front end.
var calibrationSource = func() []byte {
	var b strings.Builder
	b.WriteString("package cal\n\nimport \"fmt\"\n\n")
	for i := 0; i < 220; i++ {
		fmt.Fprintf(&b, `type T%[1]d struct {
	a, b int
	s    []string
	m    map[string]*T%[1]d
}

func (t *T%[1]d) F(x int) (int, error) {
	for i := 0; i < x; i++ {
		if t.a > i {
			t.b += i * %[1]d
		} else {
			t.s = append(t.s, fmt.Sprint("k", i))
		}
	}
	switch {
	case x > %[1]d:
		return x, nil
	case t.m["k"] != nil:
		return t.m["k"].a, nil
	}
	return t.a + t.b, fmt.Errorf("e%%d", x)
}

`, i)
	}
	return []byte(b.String())
}()

// calibrate times the calibration task in ms: parse the source and walk
// its syntax tree, four times. A collection afterwards, untimed, leaves no
// garbage to be swept while the next op is timed.
func calibrate() float64 {
	start := time.Now()
	for i := 0; i < 4; i++ {
		f, err := parser.ParseFile(token.NewFileSet(), "cal.go", calibrationSource, 0)
		if err != nil {
			panic("calibration source does not parse: " + err.Error())
		}
		n := 0
		ast.Inspect(f, func(ast.Node) bool { n++; return true })
		sink = n
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	runtime.GC()
	return ms
}
