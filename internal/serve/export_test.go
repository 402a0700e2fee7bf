package serve

import "net"

// SetConnHook installs f as the wrapper of every connection any host
// accepts or dials (nil removes it). Call it only while no host runs.
func SetConnHook(f func(net.Conn) net.Conn) { connHook = f }
