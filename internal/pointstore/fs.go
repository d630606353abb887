package pointstore

import "os"

// fsys is the store's filesystem seam. Production code always uses
// osFS; tests inject blocking or failing implementations to prove the
// locking contract — no disk I/O (and no checksum computation) ever
// runs while a shard lock is held, so a stalled or broken disk can
// slow spills down but can never stall Get/Covered/Do on entries the
// memory tier already holds.
type fsys interface {
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
