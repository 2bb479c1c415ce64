//go:build !unix

package transport

import "errors"

// ReadBuffer cannot read the receive buffer size back on this platform.
func (c *Conn) ReadBuffer() (int, error) { return 0, errors.ErrUnsupported }
