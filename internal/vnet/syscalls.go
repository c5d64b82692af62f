package vnet

import "time"

// sysno identifies an emulated network system call, following the
// paper's Fig 5 (the calls used when establishing or accepting a TCP
// connection) plus the getenv the BINDIP interception performs.
type sysno int

const (
	sysSocket sysno = iota
	sysBind
	sysConnect
	sysListen
	sysAccept
	sysClose
	sysSend
	sysRecv
	sysGetenv
	numSysnos
)

// syscallCost is the virtual CPU time of each emulated system call,
// calibrated so a socket+connect+close cycle costs 10.22 µs, the
// paper's measured baseline; the BINDIP interception adds one getenv
// and one bind to every connect or listen, raising the cycle to
// 10.79 µs — the paper's measured worst case.
var syscallCost = [numSysnos]time.Duration{
	sysSocket:  2100 * time.Nanosecond,
	sysBind:    450 * time.Nanosecond,
	sysConnect: 4000 * time.Nanosecond,
	sysListen:  600 * time.Nanosecond,
	sysAccept:  3000 * time.Nanosecond,
	sysClose:   4120 * time.Nanosecond,
	sysSend:    900 * time.Nanosecond,
	sysRecv:    900 * time.Nanosecond,
	sysGetenv:  120 * time.Nanosecond,
}
