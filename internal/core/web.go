package core

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/synth"
)

// Web returns (building if needed) the synthetic web for a domain.
// Distinct domains build concurrently; duplicate callers share one
// build.
func (s *Study) Web(d entity.Domain) (*synth.Web, error) {
	return s.webs.Get(d, func() (*synth.Web, error) {
		s.builds.webs.Add(1)
		defer timeBuild(obsBuildWeb, spanBuildWeb)()
		w, err := synth.Generate(synth.Config{
			Domain:         d,
			Entities:       s.cfg.Entities,
			DirectoryHosts: s.cfg.DirectoryHosts,
			Seed:           s.cfg.Seed ^ domainSalt(d),
		})
		if err != nil {
			return nil, fmt.Errorf("core: generate web for %s: %w", d, err)
		}
		return w, nil
	})
}

// domainSalt decorrelates per-domain generation under one master seed.
func domainSalt(d entity.Domain) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(d); i++ {
		h ^= uint64(d[i])
		h *= 1099511628211
	}
	return h
}

// ReviewClassifier returns the trained review classifier, training it on
// first use by the restaurants web's recipe (synth.Web.ReviewClassifier)
// under the study seed.
func (s *Study) ReviewClassifier() (*classify.NaiveBayes, error) {
	return s.reviewNB.Get(func() (*classify.NaiveBayes, error) {
		s.builds.classifiers.Add(1)
		defer timeBuild(obsBuildClassifier, spanBuildClassifier)()
		w, err := s.Web(entity.Restaurants)
		if err != nil {
			return nil, err
		}
		return w.ReviewClassifier(s.cfg.Seed)
	})
}
