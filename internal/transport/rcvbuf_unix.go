//go:build unix

package transport

import (
	"fmt"
	"syscall"
)

// ReadBuffer reads the socket's receive buffer size back from the kernel.
func (c *Conn) ReadBuffer() (int, error) {
	rc, err := c.uc.SyscallConn()
	if err != nil {
		return 0, fmt.Errorf("transport: read buffer: %w", err)
	}
	var size int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, fmt.Errorf("transport: read buffer: %w", err)
	}
	if serr != nil {
		return 0, fmt.Errorf("transport: read buffer: %w", serr)
	}
	return size, nil
}
