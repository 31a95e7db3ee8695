//go:build !amd64

package core

// cpuHasVectorGather is false off amd64: the vector gather is amd64
// assembly.
const cpuHasVectorGather = false

// gatherVector is gather: NewPredictor never picks the vector gather here.
func (p *Predictor) gatherVector() int { return p.gather() }
