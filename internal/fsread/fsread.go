// Package fsread reads whole files and whole source trees at the cost of
// their system calls. It has two functions:
//
//   - File reads one file whole, like os.ReadFile.
//   - Tree reads every kept file under a root in one serial pass, like a
//     filepath.WalkDir that calls os.ReadFile on each kept entry, and
//     returns the files keyed by slash-separated path relative to the root.
//
// Both return what their standard-library references return: the same
// bytes, and the same *fs.PathError (operation and path) for the first
// failure in walk order. On Linux they call the kernel directly: a file is
// opened with open(2) or openat(2) relative to its directory's descriptor,
// its buffer is sized from fstat(2), and nothing goes through the runtime
// poller, whose set-up (non-blocking mode on and off, an epoll
// registration that regular files refuse) costs more than a small file's
// read. Elsewhere they are the standard-library code itself.
package fsread
