// Package faultio abstracts the handful of filesystem operations the
// durability subsystem needs (create, append, rename, sync, truncate)
// behind an injectable FS interface, so the write-ahead log and the
// snapshot writer can run against the real OS in production and against
// an in-memory, crash-simulating, fault-injecting filesystem in tests.
//
// Three implementations:
//
//   - OS: passthrough to the os package, with directory fsync after
//     renames so the atomic-replace protocol is durable on POSIX.
//   - MemFS: an in-memory filesystem that models the page cache — bytes
//     written but not yet synced are lost by Crash(), which is how the
//     crash-matrix tests catch missing-fsync bugs.
//   - Faulty: a wrapper over any FS that fails (or tears and then fails)
//     the Nth operation of a chosen kind, and counts operations so a
//     test can enumerate every fault point of a workload.
package faultio

import (
	"io"
	"os"
	"path/filepath"
)

// File is the handle surface the durability code writes through. Reads
// are sequential from the start; writes land at the handle's current
// write offset (append for handles returned by OpenAppend).
type File interface {
	io.Reader
	io.Writer
	// Sync forces written bytes to stable storage.
	Sync() error
	Close() error
}

// FS is the filesystem surface the durability code runs on.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Size reports the length of name in bytes; a missing file is an
	// error satisfying os.IsNotExist / errors.Is(err, os.ErrNotExist).
	Size(name string) (int64, error)
	// Truncate cuts name down to size bytes.
	Truncate(name string, size int64) error
}

// OS is the production FS backed by the os package.
type OS struct{}

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// OpenAppend implements FS.
func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Rename implements FS. After the rename it fsyncs the containing
// directory, so the new directory entry survives a crash — without it,
// write-to-temp + rename is atomic but not durable.
func (OS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(newpath))
	if err != nil {
		return nil // directory sync is best-effort (e.g. read-only FS views)
	}
	defer dir.Close()
	_ = dir.Sync()
	return nil
}

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Size implements FS.
func (OS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// WriteAtomic replaces path with what write produces, so a crash at any
// instant leaves either the old file or the complete new one: write
// fills path+".tmp", which is synced to stable storage and renamed over
// path. On an error the temp file is removed and path is untouched.
func WriteAtomic(fs FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return fs.Rename(tmp, path)
}
