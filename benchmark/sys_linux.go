package main

import "syscall"

// childAttr makes a kgaqd child die with the benchmark even when the
// benchmark itself is SIGKILLed (a driver timeout), which no deferred or
// signal-handler cleanup can cover.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
