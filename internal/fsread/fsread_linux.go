//go:build linux

package fsread

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// File reads the named file whole. Its bytes and its errors are
// os.ReadFile's: "open" when the file cannot be opened, "read" when a read
// fails (a directory reads as "is a directory").
func File(path string) ([]byte, error) {
	fd, err := openat(atFDCWD, path, syscall.O_RDONLY|syscall.O_CLOEXEC)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	b, err := readAll(fd)
	if err != nil {
		return nil, &fs.PathError{Op: "read", Path: path, Err: err}
	}
	return b, nil
}

// Tree reads every kept non-directory entry under root, keyed by its
// slash-separated path relative to root, as filepath.WalkDir with
// os.ReadFile on each kept entry would. keep is asked with each entry's
// base name, or with root itself when root is not a directory (its key is
// then "."). Directories are listed in name order and entered as they are
// met, and the first error in that order is returned: "lstat" for the
// root, "open" for a directory or file that cannot be opened, "readdirent"
// for a failed listing, "read" for a failed read. A symbolic link is an
// entry, never a directory, so a kept link to a directory fails to read.
//
// Each returned source is a string over its own read buffer, never copied.
// Every descriptor Tree opens is closed before it returns.
func Tree(root string, keep func(name string) bool) (map[string]string, error) {
	var st syscall.Stat_t
	if err := ignoringEINTR(func() error { return syscall.Lstat(root, &st) }); err != nil {
		return nil, &fs.PathError{Op: "lstat", Path: root, Err: err}
	}
	t := &tree{keep: keep, files: make(map[string]string)}
	if st.Mode&syscall.S_IFMT != syscall.S_IFDIR {
		if keep(root) {
			if op, err := t.file(atFDCWD, root, "."); err != nil {
				return nil, &fs.PathError{Op: op, Path: root, Err: err}
			}
		}
		return t.files, nil
	}
	fd, err := openat(atFDCWD, root, syscall.O_RDONLY|syscall.O_CLOEXEC|syscall.O_DIRECTORY)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: root, Err: err}
	}
	buf := direntBufs.Get().(*[]byte)
	defer direntBufs.Put(buf)
	t.dirents = *buf
	if err := t.dir(fd, root, ""); err != nil {
		return nil, err
	}
	return t.files, nil
}

// direntBufs holds getdents buffers, one per Tree call in flight.
var direntBufs = sync.Pool{New: func() any {
	b := make([]byte, 8<<10)
	return &b
}}

// tree is one Tree call's state.
type tree struct {
	keep  func(string) bool
	files map[string]string
	// dirents is the getdents buffer, shared by every directory.
	dirents []byte
}

// entry is one directory entry Tree visits.
type entry struct {
	name string
	dir  bool
}

// dir reads the directory open on fd, whose walk path is path and whose
// keys start with prefix, and closes fd.
func (t *tree) dir(fd int, path, prefix string) error {
	defer syscall.Close(fd)
	ents, err := t.list(fd, path)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.dir {
			p := filepath.Join(path, e.name)
			sub, err := openat(fd, e.name, syscall.O_RDONLY|syscall.O_CLOEXEC|syscall.O_DIRECTORY)
			if err != nil {
				return &fs.PathError{Op: "open", Path: p, Err: err}
			}
			if err := t.dir(sub, p, prefix+e.name+"/"); err != nil {
				return err
			}
			continue
		}
		if t.keep(e.name) {
			if op, err := t.file(fd, e.name, prefix+e.name); err != nil {
				return &fs.PathError{Op: op, Path: filepath.Join(path, e.name), Err: err}
			}
		}
	}
	return nil
}

// list returns the entries of the directory open on fd, "." and ".."
// left out, sorted by name as os.ReadDir sorts them.
func (t *tree) list(fd int, path string) ([]entry, error) {
	// A getdents64 record is the Dirent layout cut to its name's length,
	// so its fields are read at their offsets, never through a *Dirent
	// that would reach past the record.
	var d syscall.Dirent
	inoOff, reclenOff := int(unsafe.Offsetof(d.Ino)), int(unsafe.Offsetof(d.Reclen))
	typeOff, nameOff := int(unsafe.Offsetof(d.Type)), int(unsafe.Offsetof(d.Name))
	var ents []entry
	for {
		var n int
		err := ignoringEINTR(func() (err error) {
			n, err = syscall.ReadDirent(fd, t.dirents)
			return err
		})
		if err != nil {
			return nil, &fs.PathError{Op: "readdirent", Path: path, Err: err}
		}
		if n <= 0 {
			break
		}
		for buf := t.dirents[:n]; len(buf) >= nameOff; {
			reclen := int(*(*uint16)(unsafe.Pointer(&buf[reclenOff])))
			if reclen < nameOff || reclen > len(buf) {
				break
			}
			rec := buf[:reclen]
			buf = buf[reclen:]
			if *(*uint64)(unsafe.Pointer(&rec[inoOff])) == 0 {
				continue
			}
			name := rec[nameOff:]
			if i := slices.Index(name, 0); i >= 0 {
				name = name[:i]
			}
			if string(name) == "." || string(name) == ".." {
				continue
			}
			s := string(name)
			dir, gone, err := isDir(path, s, rec[typeOff])
			if err != nil {
				return nil, err
			}
			if !gone {
				ents = append(ents, entry{s, dir})
			}
		}
	}
	slices.SortFunc(ents, func(a, b entry) int { return strings.Compare(a.name, b.name) })
	return ents, nil
}

// isDir reports whether the entry name of the directory at path is a
// directory, from its dirent type when the file system gives one and
// otherwise (DT_UNKNOWN) from an lstat of path/name, which is
// fstatat(AT_FDCWD, AT_SYMLINK_NOFOLLOW), as os.ReadDir does: an entry that
// vanished before the lstat is gone, and any other lstat failure is the
// listing's error.
func isDir(path, name string, typ uint8) (dir, gone bool, err error) {
	switch typ {
	case syscall.DT_DIR:
		return true, false, nil
	case syscall.DT_REG, syscall.DT_LNK, syscall.DT_BLK, syscall.DT_CHR, syscall.DT_FIFO, syscall.DT_SOCK:
		return false, false, nil
	}
	p := path + "/" + name
	var st syscall.Stat_t
	if err := ignoringEINTR(func() error { return syscall.Lstat(p, &st) }); err != nil {
		if os.IsNotExist(err) {
			return false, true, nil
		}
		return false, false, &fs.PathError{Op: "lstat", Path: p, Err: err}
	}
	return st.Mode&syscall.S_IFMT == syscall.S_IFDIR, false, nil
}

// file reads the file name, relative to dirfd, and stores it under key,
// as a string over the read buffer. A failure returns the failing
// operation ("open" or "read") and its errno, for the caller to name the
// path.
func (t *tree) file(dirfd int, name, key string) (op string, err error) {
	fd, err := openat(dirfd, name, syscall.O_RDONLY|syscall.O_CLOEXEC)
	if err != nil {
		return "open", err
	}
	defer syscall.Close(fd)
	b, err := readAll(fd)
	if err != nil {
		return "read", err
	}
	// b is never written again, so the string may share it.
	t.files[key] = unsafe.String(unsafe.SliceData(b), len(b))
	return "", nil
}

// readAll reads the file open on fd to its end, stopping at a read that
// returns nothing; an error is a read's errno. The buffer holds the size
// fstat reports plus the byte that the last read finds empty, or 512
// bytes when fstat reports none (as /proc files do), and grows as needed.
func readAll(fd int) ([]byte, error) {
	size := 512
	var st syscall.Stat_t
	if ignoringEINTR(func() error { return syscall.Fstat(fd, &st) }) == nil && st.Size > 0 && st.Size < 1<<30 {
		size = int(st.Size) + 1
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		err := ignoringEINTR(func() (err error) {
			n, err = syscall.Read(fd, b[len(b):cap(b)])
			return err
		})
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return b, nil
		}
		b = b[:len(b)+n]
	}
}

// atFDCWD is Linux's AT_FDCWD: a dirfd that resolves names against the
// working directory (package syscall does not export it on every
// architecture).
const atFDCWD = -100

// openat opens name relative to dirfd (atFDCWD: the working directory).
func openat(dirfd int, name string, flags int) (fd int, err error) {
	err = ignoringEINTR(func() (err error) {
		fd, err = syscall.Openat(dirfd, name, flags, 0)
		return err
	})
	return fd, err
}

// ignoringEINTR retries f while it fails with EINTR, as package os does.
func ignoringEINTR(f func() error) error {
	for {
		if err := f(); err != syscall.EINTR {
			return err
		}
	}
}
