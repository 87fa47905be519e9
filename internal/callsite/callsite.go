// Package callsite derives stable matching-function identifiers from the
// program counter of the MF call (paper §4.4: "we analyze the call stacks
// of the function calls, and separately manage the record tables for the
// different MF call instances").
//
// The identifier is an FNV-1a hash of the caller's file:line, so it is
// stable between the record run and the replay run of the same program —
// unlike raw program-counter values, which can move between builds.
package callsite

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
)

type entry struct {
	id   uint64
	name string
}

var cache sync.Map // uintptr (return pc from runtime.Callers) -> entry

// ID returns the identifier and human-readable name (file:line) of the
// caller skip frames above this function. skip follows runtime.Caller:
// skip=1 identifies ID's caller, skip=2 that function's caller, and so on.
//
// Each call takes only the PC; the frame is symbolized the first time that
// PC is seen. runtime.Caller(skip) is runtime.Callers(skip+1) followed by
// CallersFrames, so ids and names are the ones runtime.Caller would give.
func ID(skip int) (uint64, string) {
	var pcs [1]uintptr
	if runtime.Callers(skip+1, pcs[:]) < 1 {
		return 0, "unknown"
	}
	if e, hit := cache.Load(pcs[0]); hit {
		ent := e.(entry)
		return ent.id, ent.name
	}
	// A fresh slice: handing pcs to CallersFrames would move it to the heap
	// on the hit path too.
	frame, _ := runtime.CallersFrames([]uintptr{pcs[0]}).Next()
	if frame.PC == 0 {
		return 0, "unknown"
	}
	file, line := frame.File, frame.Line
	// Keep the last two path components: unambiguous enough for humans,
	// and short enough that name frames stay negligible in the record.
	slashes := 0
	for i := len(file) - 1; i >= 0; i-- {
		if file[i] == '/' {
			slashes++
			if slashes == 2 {
				file = file[i+1:]
				break
			}
		}
	}
	name := fmt.Sprintf("%s:%d", file, line)
	h := fnv.New64a()
	h.Write([]byte(name))
	ent := entry{id: h.Sum64(), name: name}
	if ent.id == 0 {
		ent.id = 1 // reserve 0 for "MF identification disabled"
	}
	cache.Store(pcs[0], ent)
	return ent.id, ent.name
}
