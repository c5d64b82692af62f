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

// SyscallMeter counts emulated system calls and accumulates their cost.
// Each Host owns one; the bind-interception experiment reads it.
type SyscallMeter struct {
	Counts [numSyscalls]uint64
	Total  time.Duration
}

// Charge records one invocation of s and returns its cost so callers can
// charge it to virtual time.
func (m *SyscallMeter) Charge(s Syscall) time.Duration {
	m.Counts[s]++
	d := syscallCost[s]
	m.Total += d
	return d
}

// Count returns how many times s was invoked.
func (m *SyscallMeter) Count(s Syscall) uint64 { return m.Counts[s] }
