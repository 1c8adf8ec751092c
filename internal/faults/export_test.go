package faults

// NewTestModel is testModel for the external tests (package faults_test),
// which decode through gen, and gen imports this package.
var NewTestModel = testModel
