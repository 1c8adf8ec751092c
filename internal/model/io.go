package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/numerics"
	"repro/internal/tensor"
)

// fileModel is the serialized form of a dense-weight model. Quantized
// models are produced in memory from dense ones and are not serialized.
type fileModel struct {
	Cfg       Config
	Embed     fileTensor
	FinalNorm []float32
	LMHead    fileTensor
	Blocks    []fileBlock
}

type fileTensor struct {
	Rows, Cols int
	Data       []float32
}

type fileBlock struct {
	AttnNorm, MLPNorm []float32
	Wq, Wk, Wv, Wo    fileTensor
	MLP               *fileMLP
	Router            *fileTensor
	Experts           []fileMLP
}

type fileMLP struct {
	WGate, WUp, WDown fileTensor
}

func toFileTensor(t *tensor.Tensor) fileTensor {
	return fileTensor{Rows: t.Rows, Cols: t.Cols, Data: t.Data}
}

func fromFileTensor(f fileTensor) *tensor.Tensor {
	return tensor.FromSlice(f.Rows, f.Cols, f.Data)
}

func denseTensor(w Weight) (fileTensor, error) {
	d, ok := w.(*Dense)
	if !ok {
		return fileTensor{}, fmt.Errorf("model: cannot serialize non-dense weight %T", w)
	}
	return toFileTensor(d.T), nil
}

// Save writes the model's parameters to w in gob format. Only models with
// dense weights can be saved.
func (m *Model) Save(w io.Writer) error {
	fm := fileModel{
		Cfg:       m.Cfg,
		Embed:     toFileTensor(m.Embed),
		FinalNorm: m.FinalNorm,
	}
	var err error
	if fm.LMHead, err = denseTensor(m.LMHead); err != nil {
		return err
	}
	for _, blk := range m.Blocks {
		fb := fileBlock{AttnNorm: blk.AttnNorm, MLPNorm: blk.MLPNorm}
		for _, pair := range []struct {
			dst *fileTensor
			src Weight
		}{{&fb.Wq, blk.Wq}, {&fb.Wk, blk.Wk}, {&fb.Wv, blk.Wv}, {&fb.Wo, blk.Wo}} {
			if *pair.dst, err = denseTensor(pair.src); err != nil {
				return err
			}
		}
		if blk.MLP != nil {
			fm2, err := toFileMLP(blk.MLP)
			if err != nil {
				return err
			}
			fb.MLP = &fm2
		}
		if blk.Router != nil {
			rt, err := denseTensor(blk.Router)
			if err != nil {
				return err
			}
			fb.Router = &rt
			for _, ex := range blk.Experts {
				fe, err := toFileMLP(ex)
				if err != nil {
					return err
				}
				fb.Experts = append(fb.Experts, fe)
			}
		}
		fm.Blocks = append(fm.Blocks, fb)
	}
	return gob.NewEncoder(w).Encode(&fm)
}

func toFileMLP(m *MLPWeights) (fileMLP, error) {
	var out fileMLP
	var err error
	if out.WGate, err = denseTensor(m.WGate); err != nil {
		return out, err
	}
	if out.WUp, err = denseTensor(m.WUp); err != nil {
		return out, err
	}
	out.WDown, err = denseTensor(m.WDown)
	return out, err
}

// Load reads a model previously written by Save. The datatype recorded in
// the config is re-applied (weights are re-rounded on load).
func Load(r io.Reader) (*Model, error) {
	var fm fileModel
	if err := gob.NewDecoder(r).Decode(&fm); err != nil {
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	if err := fm.Cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Cfg:       fm.Cfg,
		Embed:     fromFileTensor(fm.Embed),
		FinalNorm: fm.FinalNorm,
		LMHead:    NewDense(fromFileTensor(fm.LMHead), fm.Cfg.DType),
	}
	for _, fb := range fm.Blocks {
		blk := &Block{
			AttnNorm: fb.AttnNorm,
			MLPNorm:  fb.MLPNorm,
			Wq:       NewDense(fromFileTensor(fb.Wq), fm.Cfg.DType),
			Wk:       NewDense(fromFileTensor(fb.Wk), fm.Cfg.DType),
			Wv:       NewDense(fromFileTensor(fb.Wv), fm.Cfg.DType),
			Wo:       NewDense(fromFileTensor(fb.Wo), fm.Cfg.DType),
		}
		if fb.MLP != nil {
			blk.MLP = fromFileMLP(*fb.MLP, fm.Cfg.DType)
		}
		if fb.Router != nil {
			blk.Router = NewDense(fromFileTensor(*fb.Router), fm.Cfg.DType)
			for _, fe := range fb.Experts {
				blk.Experts = append(blk.Experts, fromFileMLP(fe, fm.Cfg.DType))
			}
		}
		m.Blocks = append(m.Blocks, blk)
	}
	m.initRope()
	return m, nil
}

func fromFileMLP(f fileMLP, dt numerics.DType) *MLPWeights {
	return &MLPWeights{
		WGate: NewDense(fromFileTensor(f.WGate), dt),
		WUp:   NewDense(fromFileTensor(f.WUp), dt),
		WDown: NewDense(fromFileTensor(f.WDown), dt),
	}
}

// SaveFile writes the model to path (creating directories is the caller's
// job).
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}
