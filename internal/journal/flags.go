package journal

import "errors"

// Flags holds the -journal and -resume flags the batch tools share; Open
// the journal they name after flag parsing, with the run's fingerprint.
type Flags struct {
	// Path is the -journal flag: where to persist completed cells.
	Path string
	// Resume is the -resume flag: continue an existing journal instead of
	// refusing it.
	Resume bool
}

// Open creates or resumes the journal per the parsed flags. With no
// -journal it returns a journal with no file (Memory), so the run still
// computes each cell key once.
func (f *Flags) Open(fp Fingerprint) (*Journal, error) {
	if f.Path == "" {
		if f.Resume {
			return nil, errors.New("journal: -resume requires -journal")
		}
		return Memory(), nil
	}
	if f.Resume {
		return Resume(f.Path, fp)
	}
	return Create(f.Path, fp)
}
