package cir

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// bigSource is a translation unit far larger than any small test input,
// with every kind of token text the reused buffer stores: identifiers and
// integers spelled by the source, and decoded string and char literals and
// #define bodies that it does not spell.
func bigSource() string {
	var sb strings.Builder
	sb.WriteString("#define BIG_LIMIT 4096\nint printk(char *fmt, int v);\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, `int big_fn%d(int *p, int n) {
	char c = '\n';
	if (p == NULL)
		return -EINVAL;
	printk("big %d\t\"%%d\"\n", n + 0x%x);
	return n * %d + BIG_LIMIT;
}
`, i, i, i, i)
	}
	return sb.String()
}

// smallCases are the inputs whose parse must not depend on what the buffer
// held before: a well-formed file, and one whose parse error at 2:7 comes
// before a lex error at 3:10 (the lex error is reported, since the whole
// file is lexed first).
var smallCases = []struct{ name, src string }{
	{"ok.c", "#define LIMIT 7\nint f(int x) {\n\tprintk(\"v=%d\\n\", x + 'a');\n\treturn x < LIMIT;\n}\n"},
	{"lexerr.c", "int g(void) {\n\treturn ) 1;\n\tint y = @;\n}\n"},
}

// TestParseFileReusedBufferMatchesFresh parses a large file and then each
// small case with the same token buffer: the small file's AST, or its
// error text and position, must equal a parse with a fresh buffer.
func TestParseFileReusedBufferMatchesFresh(t *testing.T) {
	big := bigSource()
	for _, c := range smallCases {
		wantF, wantErr := parseFile(c.name, c.src, new([]tok))

		buf := new([]tok)
		if _, err := parseFile("big.c", big, buf); err != nil {
			t.Fatalf("big file: %v", err)
		}
		if cap(*buf) < len(c.src)/4+1 {
			t.Fatalf("buffer cap %d after the big file: the small parse would not reuse it", cap(*buf))
		}
		first := &(*buf)[:1][0]
		gotF, gotErr := parseFile(c.name, c.src, buf)
		if &(*buf)[:1][0] != first {
			t.Fatalf("%s: the small parse did not reuse the big file's buffer", c.name)
		}

		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: reused-buffer error %v, fresh %v", c.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotF, wantF) {
			t.Fatalf("%s: reused-buffer AST differs from a fresh parse", c.name)
		}
	}

	// The error case reports Lex's error, position included.
	c := smallCases[1]
	_, lexErr := Lex(c.src)
	if lexErr == nil || !strings.Contains(lexErr.Error(), "lex error at 3:10") {
		t.Fatalf("Lex(%s) = %v, want a lex error at 3:10", c.name, lexErr)
	}
	_, err := ParseFile(c.name, c.src)
	if want := c.name + ": " + lexErr.Error(); err == nil || err.Error() != want {
		t.Fatalf("ParseFile(%s) = %v, want %q", c.name, err, want)
	}
}

// TestParseFileConcurrent parses large and small files from several
// goroutines through the shared buffer pool; every result must equal a
// sequential parse. Run under -race it also checks that no two parses
// share a buffer.
func TestParseFileConcurrent(t *testing.T) {
	inputs := append([]struct{ name, src string }{{"big.c", bigSource()}}, smallCases...)
	type result struct {
		f   *File
		err string
	}
	want := make([]result, len(inputs))
	for i, in := range inputs {
		f, err := parseFile(in.name, in.src, new([]tok))
		want[i] = result{f, fmt.Sprint(err)}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				i := (g + r) % len(inputs)
				f, err := ParseFile(inputs[i].name, inputs[i].src)
				if fmt.Sprint(err) != want[i].err || !reflect.DeepEqual(f, want[i].f) {
					errs <- fmt.Sprintf("goroutine %d: %s parsed differently", g, inputs[i].name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
