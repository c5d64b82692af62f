package vnet

import "time"

// Syscall identifies an emulated network system call, following the
// paper's Fig 5 (the calls used when establishing or accepting a TCP
// connection) plus the getenv the BINDIP interception performs.
type Syscall int

const (
	SyscallSocket Syscall = iota
	SyscallBind
	SyscallConnect
	SyscallListen
	SyscallAccept
	SyscallClose
	SyscallSend
	SyscallRecv
	SyscallGetenv
	numSyscalls
)

var syscallNames = [...]string{
	"socket", "bind", "connect", "listen", "accept", "close",
	"send", "recv", "getenv",
}

// String returns the libc name of the call.
func (s Syscall) String() string {
	if s < 0 || int(s) >= len(syscallNames) {
		return "syscall(?)"
	}
	return syscallNames[s]
}

// syscallCost is the virtual CPU time of each emulated system call,
// calibrated so a socket+connect+close cycle costs 10.22 µs, the
// paper's measured baseline; the BINDIP interception adds one getenv
// and one bind to every connect or listen, raising the cycle to
// 10.79 µs — the paper's measured worst case.
var syscallCost = [numSyscalls]time.Duration{
	SyscallSocket:  2100 * time.Nanosecond,
	SyscallBind:    450 * time.Nanosecond,
	SyscallConnect: 4000 * time.Nanosecond,
	SyscallListen:  600 * time.Nanosecond,
	SyscallAccept:  3000 * time.Nanosecond,
	SyscallClose:   4120 * time.Nanosecond,
	SyscallSend:    900 * time.Nanosecond,
	SyscallRecv:    900 * time.Nanosecond,
	SyscallGetenv:  120 * time.Nanosecond,
}
