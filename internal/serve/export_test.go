package serve

import "net"

// SetConnHook installs f as the wrapper of every connection any host
// accepts or dials (nil removes it). Call it only while no host runs.
func SetConnHook(f func(net.Conn) net.Conn) { connHook = f }

// SetCopyHook installs f as the observer of every frame a Writer copies
// into its pending block (nil removes it). Call it only while no host
// runs.
func SetCopyHook(f func(conn net.Conn, n int)) { copyHook = f }
