// Package other is not networked: its fabric waits are not checked.
package other

import "fixture/fabric"

func untimed(p *int, op fabric.Op) int { return op.Wait(p).Len }
