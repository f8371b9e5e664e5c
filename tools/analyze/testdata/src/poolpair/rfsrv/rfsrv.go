// Package rfsrv is a fixture standing in for the cluster's size
// publish: startPublish returns a handle whose round holds control
// slots, and finishPublish — taking the handle — collects it.
package rfsrv

import "errors"

type Cluster struct{ held int }

type sizePublish struct{ on bool }

func (cl *Cluster) startPublish(end int64) sizePublish {
	cl.held++
	return sizePublish{on: end > 0}
}

func (cl *Cluster) finishPublish(pub sizePublish, dataErr error) error {
	cl.held--
	return dataErr
}

func (cl *Cluster) wait() error { return errors.New("data lost") }

// write mirrors Cluster.Write: the failed-data arm finishes too.
func (cl *Cluster) write(end int64) error {
	pub := cl.startPublish(end)
	if err := cl.wait(); err != nil {
		return cl.finishPublish(pub, err)
	}
	if err := cl.finishPublish(pub, nil); err != nil {
		return err
	}
	return nil
}

func (cl *Cluster) writeSkipsFinishOnError(end int64) error {
	pub := cl.startPublish(end) // want "Cluster.startPublish is not released on every path: leaks at this return"
	if err := cl.wait(); err != nil {
		return err // the round's control slots stay held
	}
	return cl.finishPublish(pub, nil)
}

// writeAfterBranches is writeSkipsFinishOnError behind a branch that
// merges before the start: the merge must not pass a defer cover on to
// the acquisition that follows it.
func (cl *Cluster) writeAfterBranches(end int64, whole bool) error {
	if whole {
		end = 0
	} else {
		end++
	}
	pub := cl.startPublish(end) // want "Cluster.startPublish is not released on every path: leaks at this return"
	if err := cl.wait(); err != nil {
		return err
	}
	return cl.finishPublish(pub, nil)
}

func (cl *Cluster) setFileSize(end int64) error {
	pub := cl.startPublish(end)
	return cl.finishPublish(pub, nil)
}
