//go:build !linux

package main

import (
	"errors"
	"os"
)

func newMemFile(string) (*os.File, string, error) {
	return nil, "", errors.New("memfd_create: linux only")
}
