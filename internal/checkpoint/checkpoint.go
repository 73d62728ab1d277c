// Package checkpoint serializes model parameters so trained models can be
// saved and restored across processes. The format is a small
// stdlib-gob-encoded envelope: a version, free-form metadata (model type,
// dataset, epoch, ...), and the parameter tensors in the model's canonical
// Params() order.
//
// Optimizer state (Adam moments) is deliberately not saved: a restored
// model resumes with a fresh optimizer, which matches how GNN checkpoints
// are typically used (evaluation, fine-tuning).
package checkpoint

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"betty/internal/nn"
)

// formatVersion guards against decoding incompatible files. Version 2
// stores the metadata as a slice of pairs instead of a map.
const formatVersion = 2

// paramBlob is one serialized parameter tensor.
type paramBlob struct {
	Rows, Cols int
	Data       []float32
}

// metaPair is one metadata entry.
type metaPair struct {
	Key, Value string
}

// envelope is the on-disk structure. Meta is a slice, not a map: gob sizes
// a map from the count in the input before reading any entry, so a corrupt
// count could ask for gigabytes, while a slice's first allocation is
// capped and grows only as entries actually decode.
type envelope struct {
	Version int
	Meta    []metaPair
	Params  []paramBlob
}

// Save writes m's parameters and the metadata to w.
func Save(w io.Writer, m nn.Module, meta map[string]string) error {
	env := envelope{Version: formatVersion}
	for k, v := range meta {
		env.Meta = append(env.Meta, metaPair{k, v})
	}
	// Sorted, so a checkpoint's bytes are a function of its contents.
	slices.SortFunc(env.Meta, func(a, b metaPair) int { return strings.Compare(a.Key, b.Key) })
	for _, p := range m.Params() {
		env.Params = append(env.Params, paramBlob{
			Rows: p.Value.Rows(),
			Cols: p.Value.Cols(),
			Data: p.Value.Data,
		})
	}
	if err := gob.NewEncoder(w).Encode(&env); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// Load restores parameters from r into m (which must have the same
// architecture) and returns the stored metadata.
func Load(r io.Reader, m nn.Module) (map[string]string, error) {
	var env envelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if env.Version != formatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported format version %d", env.Version)
	}
	params := m.Params()
	if len(params) != len(env.Params) {
		return nil, fmt.Errorf("checkpoint: model has %d parameters, file has %d", len(params), len(env.Params))
	}
	for i, p := range params {
		blob := env.Params[i]
		if p.Value.Rows() != blob.Rows || p.Value.Cols() != blob.Cols {
			return nil, fmt.Errorf("checkpoint: parameter %d shape %dx%d, file has %dx%d",
				i, p.Value.Rows(), p.Value.Cols(), blob.Rows, blob.Cols)
		}
		if len(blob.Data) != blob.Rows*blob.Cols {
			return nil, fmt.Errorf("checkpoint: parameter %d data length %d for %dx%d",
				i, len(blob.Data), blob.Rows, blob.Cols)
		}
	}
	// validate everything before mutating the model
	for i, p := range params {
		copy(p.Value.Data, env.Params[i].Data)
	}
	var meta map[string]string
	if len(env.Meta) > 0 {
		meta = make(map[string]string, len(env.Meta))
	}
	for _, kv := range env.Meta {
		meta[kv.Key] = kv.Value
	}
	return meta, nil
}

// SaveFile writes a checkpoint to path (created or truncated).
func SaveFile(path string, m nn.Module, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	if err := Save(f, m, meta); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile restores a checkpoint from path into m.
func LoadFile(path string, m nn.Module) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return Load(f, m)
}
