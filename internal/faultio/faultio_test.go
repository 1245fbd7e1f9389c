package faultio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestMemFSCrashDropsUnsynced(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	if got := string(fs.Bytes("wal")); got != "durablevolatile" {
		t.Fatalf("pre-crash content %q", got)
	}
	fs.Crash()
	if got := string(fs.Bytes("wal")); got != "durable" {
		t.Fatalf("post-crash content %q, want only the synced prefix", got)
	}
}

func TestMemFSRenameCarriesSyncState(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("tmp")
	_, _ = f.Write([]byte("snapshot"))
	// No sync before rename: the classic torn-snapshot bug. The renamed
	// file must lose its bytes at crash.
	if err := fs.Rename("tmp", "final"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if got := fs.Bytes("final"); len(got) != 0 {
		t.Fatalf("unsynced renamed file survived crash with %d bytes", len(got))
	}

	f2, _ := fs.Create("tmp2")
	_, _ = f2.Write([]byte("snapshot"))
	if err := f2.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = fs.Rename("tmp2", "final2")
	fs.Crash()
	if got := string(fs.Bytes("final2")); got != "snapshot" {
		t.Fatalf("synced renamed file lost data: %q", got)
	}
}

func TestMemFSReadAppendTruncate(t *testing.T) {
	fs := NewMemFS()
	if _, err := fs.Open("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	f, _ := fs.Create("f")
	_, _ = f.Write([]byte("hello "))
	_ = f.Close()
	a, err := fs.OpenAppend("f")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = a.Write([]byte("world"))
	_ = a.Sync()
	r, _ := fs.Open("f")
	data, _ := io.ReadAll(r)
	if string(data) != "hello world" {
		t.Fatalf("read back %q", data)
	}
	if err := fs.Truncate("f", 5); err != nil {
		t.Fatal(err)
	}
	if n, _ := fs.Size("f"); n != 5 {
		t.Fatalf("size after truncate = %d", n)
	}
	fs.Crash() // synced was 11, must clamp to 5, not resurrect bytes
	if got := string(fs.Bytes("f")); got != "hello" {
		t.Fatalf("post-truncate crash content %q", got)
	}
}

func TestFaultyCountsAndFailOp(t *testing.T) {
	fs := NewMemFS()
	faulty := NewFaulty(fs, Fault{Op: OpSync, N: 2, Mode: FailOp})
	f, _ := faulty.Create("f")
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 2 should be injected, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3 after transient fault: %v", err)
	}
	counts := faulty.Counts()
	if counts[OpSync] != 3 || counts[OpWrite] != 1 || counts[OpCreate] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if faulty.Crashed() {
		t.Fatal("FailOp must not be sticky")
	}
}

func TestFaultyCrashOpTornWrite(t *testing.T) {
	fs := NewMemFS()
	faulty := NewFaulty(fs, Fault{Op: OpWrite, N: 2, Mode: CrashOp, Torn: 3})
	f, _ := faulty.Create("f")
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("second")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: %v", err)
	}
	if got := string(fs.Bytes("f")); got != "firstsec" {
		t.Fatalf("torn content %q, want %q", got, "firstsec")
	}
	// Everything after the crash fails.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash sync: %v", err)
	}
	if err := faulty.Rename("f", "g"); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash rename: %v", err)
	}
	if !faulty.Crashed() {
		t.Fatal("Crashed() should report the sticky fault")
	}
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fs OS
	p := filepath.Join(dir, "f")
	f, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if err := fs.Rename(p, p+".2"); err != nil {
		t.Fatal(err)
	}
	if n, err := fs.Size(p + ".2"); err != nil || n != 3 {
		t.Fatalf("size = %d, %v", n, err)
	}
	a, err := fs.OpenAppend(p + ".2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = a.Write([]byte("def"))
	_ = a.Close()
	if err := fs.Truncate(p+".2", 4); err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open(p + ".2")
	data, _ := io.ReadAll(r)
	if string(data) != "abcd" {
		t.Fatalf("read %q", data)
	}
	if _, err := fs.Size(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old path should be gone: %v", err)
	}
}

// TestWriteAtomic: a successful write replaces the file with synced
// bytes that survive a crash; a failing write or fsync leaves the old
// file as it was and no temp file behind.
func TestWriteAtomic(t *testing.T) {
	mem := NewMemFS()
	put := func(fs FS, body string, err error) error {
		return WriteAtomic(fs, "snap", func(w io.Writer) error {
			if _, werr := io.WriteString(w, body); werr != nil {
				return werr
			}
			return err
		})
	}
	if err := put(mem, "old", nil); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	if got := string(mem.Bytes("snap")); got != "old" {
		t.Fatalf("after a crash: %q, want the synced %q", got, "old")
	}
	failed := errors.New("write failed")
	if err := put(mem, "new", failed); !errors.Is(err, failed) {
		t.Fatalf("a failing write returned %v", err)
	}
	if err := put(NewFaulty(mem, Fault{Op: OpSync, N: 1}), "new", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("a failing fsync returned %v", err)
	}
	if got := string(mem.Bytes("snap")); got != "old" {
		t.Fatalf("failed replacements left %q, want %q", got, "old")
	}
	if _, err := mem.Size("snap.tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed replacement left its temp file: %v", err)
	}
}
