package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// memfdCreate numbers by architecture; package syscall's table predates the
// call.
var memfdCreateNr = map[string]uintptr{"amd64": 319, "arm64": 279}

// newMemFile creates an anonymous in-memory file and returns it with a path
// that reopens it. The WAL written through that path pays its full software
// cost — encode, batch, write(2), fsync(2) — while the fsync reaches no
// device, and nothing is created on any filesystem.
func newMemFile(name string) (*os.File, string, error) {
	nr, ok := memfdCreateNr[runtime.GOARCH]
	if !ok {
		return nil, "", fmt.Errorf("memfd_create: no syscall number for %s", runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, "", err
	}
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(p)), 0, 0)
	if errno != 0 {
		return nil, "", fmt.Errorf("memfd_create: %w", errno)
	}
	f := os.NewFile(fd, name)
	return f, fmt.Sprintf("/proc/self/fd/%d", fd), nil
}
