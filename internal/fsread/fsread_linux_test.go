//go:build linux

package fsread

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFileProcFiles: files that stat as empty but are not (/proc) are read
// to their end, past the 512-byte first buffer.
func TestFileProcFiles(t *testing.T) {
	var st syscall.Stat_t
	if err := syscall.Stat("/proc/self/status", &st); err != nil || st.Size != 0 {
		t.Skipf("/proc/self/status: size %d, %v", st.Size, err)
	}
	got, err := File("/proc/self/status")
	want, wantErr := os.ReadFile("/proc/self/status")
	if err != nil || wantErr != nil {
		t.Fatalf("error %v, os.ReadFile %v", err, wantErr)
	}
	// The figures change between reads; the name line and the length
	// class do not.
	line := func(b []byte) string { return string(b[:bytes.IndexByte(b, '\n')+1]) }
	if len(got) <= 512 || line(got) != line(want) {
		t.Errorf("read %d bytes starting %q, os.ReadFile %d starting %q", len(got), line(got), len(want), line(want))
	}
	got, err = File("/proc/self/cmdline")
	want, wantErr = os.ReadFile("/proc/self/cmdline")
	if err != nil || wantErr != nil || !bytes.Equal(got, want) {
		t.Errorf("cmdline: %q, %v; os.ReadFile %q, %v", got, err, want, wantErr)
	}
}

// TestIsDirUnknownType drives the DT_UNKNOWN branch, which file systems
// that fill d_type never reach: the type comes from an lstat, a vanished
// entry is skipped, any other lstat failure is the listing's error, and a
// known type is trusted without a system call.
func TestIsDirUnknownType(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "file.c", "x")
	writeFile(t, dir, "sub/inner.c", "y")
	if err := os.Symlink(filepath.Join(dir, "sub"), filepath.Join(dir, "link")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	for _, tc := range []struct {
		path, name string
		typ        uint8
		dir, gone  bool
		err        string
	}{
		{dir, "sub", syscall.DT_UNKNOWN, true, false, ""},
		{dir, "file.c", syscall.DT_UNKNOWN, false, false, ""},
		{dir, "link", syscall.DT_UNKNOWN, false, false, ""},
		{dir, "vanished", syscall.DT_UNKNOWN, false, true, ""},
		{filepath.Join(dir, "file.c"), "x", syscall.DT_UNKNOWN, false, false,
			"lstat " + dir + "/file.c/x: not a directory"},
		{"/no/such/dir", "x", syscall.DT_REG, false, false, ""},
		{"/no/such/dir", "x", syscall.DT_DIR, true, false, ""},
		{"/no/such/dir", "x", syscall.DT_LNK, false, false, ""},
	} {
		isdir, gone, err := isDir(tc.path, tc.name, tc.typ)
		if isdir != tc.dir || gone != tc.gone || errText(err) != tc.err {
			t.Errorf("isDir(%s, %s, %d) = %t, %t, %v; want %t, %t, %q", tc.path, tc.name, tc.typ, isdir, gone, err, tc.dir, tc.gone, tc.err)
		}
	}
	// The error is the one os.ReadDir reports for the same entry.
	_, wantErr := os.Lstat(filepath.Join(dir, "file.c") + "/x")
	if _, _, err := isDir(filepath.Join(dir, "file.c"), "x", syscall.DT_UNKNOWN); errText(err) != errText(wantErr) {
		t.Errorf("error %v, os.Lstat %v", err, wantErr)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func writeFile(t *testing.T, root, rel, data string) {
	t.Helper()
	p := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
