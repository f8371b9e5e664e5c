// Package a exercises the dispatch-surface exhaustiveness checks.
package a

type Op uint8

type St int32

const (
	OpRead Op = iota
	OpWrite
	OpSync
)

const (
	StOK St = iota
	StBad
)

//analyze:dispatch ops
var incomplete = map[Op]string{ // want "ops surface does not handle OpSync"
	OpRead: "read", OpWrite: "write",
}

//analyze:dispatch ops -OpSync
var excluded = map[Op]string{
	OpRead: "read", OpWrite: "write",
}

//analyze:dispatch ops -OpWrite
var stale = map[Op]string{ // want "excludes -OpWrite but covers it" "does not handle OpSync"
	OpRead: "read", OpWrite: "write",
}

//analyze:dispatch ops -OpSync -OpGone
var ghost = map[Op]string{ // want "excludes -OpGone, which is no ops constant"
	OpRead: "read", OpWrite: "write",
}

func serveMeta(op Op) {
	//analyze:dispatch ops group=serve
	switch op {
	case OpRead:
	case OpSync:
	}
}

func serveData(op Op) {
	//analyze:dispatch ops group=serve
	switch op {
	case OpWrite:
	}
}

func errOf(st St) int {
	//analyze:dispatch statuses
	switch st { // want "statuses surface does not handle StBad"
	case StOK:
		return 0
	}
	return 1
}

func unannotated(op Op) {
	switch op {
	case OpRead:
	}
}
